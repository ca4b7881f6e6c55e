(** The observable answer of a final configuration (Definition 11):
    {!Prim}'s printer on the store instance, dereferencing vector and
    list cells through the store. The rendering conventions and the
    fuel bound are documented at {!Prim.S.to_string}; the other engines
    print through their own instances of the same functor. *)

val to_string : ?fuel:int -> Store.t -> Types.value -> string
(** [fuel] bounds the number of emitted tokens (default 10_000). *)

val display : Store.t -> Types.value -> string
(** Strings and characters raw, as Scheme's [display] does. *)

val write : Store.t -> Types.value -> string
(** Scheme's [write] notation, which {!to_string} uses. *)
