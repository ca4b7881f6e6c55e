(** Standard primitive procedures and the answer printer, written once
    for every engine.

    The paper leaves primitive rules unspecified ("These core rules must
    be supplemented by additional rules, mainly for primitive
    procedures"). Here a primitive application is a single transition:
    given the heap and the argument values it produces a new heap and a
    result value, never creating a continuation — so primitives are
    space-neutral apart from what they allocate, in every machine
    variant.

    The table and the Display/Write printer are a functor, {!Make}, over
    a value representation {!REPR}. Every engine must give the same
    answers and the same error messages for primitives (Corollary 20,
    the §16 relation), so each derives them from this one definition
    instead of keeping its own copy. There are three instances:
    - this module's top level, over {!Types.value} and the persistent
      {!Store}: the reference machines and the denotational engine
      ({!Answer} is its printer);
    - the bytecode VM's fast tier, over its mutable OCaml-heap values;
    - the SECD machine, over its own mutable values, binding only the
      subset of names it installs as globals.

    [apply] and [call-with-current-continuation] are bound in the initial
    environment but intercepted by each machine, since they manipulate
    the continuation itself. *)

exception Prim_error of string
(** Raised by a primitive on a domain error; the machine reports the
    computation as stuck. *)

type ctx = {
  output : Buffer.t;  (** [display]/[write]/[newline] sink *)
  mutable rng : int;  (** deterministic LCG state for [random] *)
}

val make_ctx : ?seed:int -> unit -> ctx

(** What the table sees of a value; procedures are opaque. *)
type ('pair, 'vector) view =
  | Bool of bool
  | Int of Tailspace_bignum.Bignum.t
  | Sym of string
  | Str of string
  | Char of char
  | Nil
  | Unspecified
  | Undefined
  | Pair of 'pair
  | Vector of 'vector
  | Closure
  | Continuation
  | Primitive of string

(** A value representation. [heap] is threaded through every access:
    [Store.t] for the store instance, [unit] for engines that mutate in
    place. *)
module type REPR = sig
  type value
  type heap
  type pair
  type vector

  val view : value -> (pair, vector) view

  val same : value -> value -> bool
  (** Identity of two pairs, vectors, closures or continuations: store
      locations for the store instance, [==] for the heap engines (each
      of their pair, vector, closure and continuation values is built
      once and never rewrapped). *)

  val bool : bool -> value
  val int : Tailspace_bignum.Bignum.t -> value
  val sym : string -> value
  val str : string -> value
  val char : char -> value
  val nil : value
  val unspecified : value
  val undefined : value

  (** Fresh data. The store instance allocates a pair's car before its
      cdr, each list cell's tail before its head, and a vector's
      elements with [Store.alloc_many]. *)

  val cons : heap -> value -> value -> heap * value
  val list : heap -> value list -> heap * value
  val vector : heap -> value list -> heap * value

  val list_bound : heap -> int
  (** Longest list [list_to_values] walks (a guard against cycles). *)

  (** In the store instance, [car], [cdr] and [vector_ref] fail on a
      location that [I_stack] deleted; the table reports that as stuck
      and the printer shows the value as undefined. *)

  val car : heap -> pair -> value
  val cdr : heap -> pair -> value
  val set_car : heap -> pair -> value -> heap
  val set_cdr : heap -> pair -> value -> heap
  val vector_length : vector -> int
  val vector_ref : heap -> vector -> int -> value
  val vector_set : heap -> vector -> int -> value -> heap
end

module type S = sig
  type value
  type heap
  type fn = ctx -> heap -> value list -> heap * value

  val find : string -> fn option
  (** Look up a primitive's transition function by name. *)

  val names : unit -> string list
  (** All primitive names, including the machine-level ones. *)

  val of_const : Tailspace_ast.Ast.const -> value
  (** Constants denote themselves (first reduction rule). *)

  val tag : value -> string
  (** Short constructor name for error messages ("pair", "closure", ...). *)

  val eqv : value -> value -> bool
  (** [eqv?]: numbers and characters by value, pairs/vectors/procedures
      by identity ({!REPR.same}), strings structurally (our strings are
      immutable and have no store identity — documented deviation). *)

  val list_to_values : heap -> value -> value list option
  (** Flatten a proper list; [None] if improper, dangling, or longer
      than {!REPR.list_bound}. *)

  val to_string : ?fuel:int -> heap -> value -> string
  (** The observable answer (Definition 11), in [write] notation:
      booleans as [#t]/[#f], exact integers in decimal, symbols by name,
      vectors as [#(...)], every procedure as [#<PROC>], lists
      element-wise. [fuel] bounds the number of emitted tokens (default
      10_000); when it runs out the rendering ends in ["..."], so cyclic
      data stays comparable across machines without diverging. *)

  val display : heap -> value -> string
  (** Strings and characters raw, as Scheme's [display] does. *)

  val write : heap -> value -> string
  (** Strings quoted and escaped, characters in [#\x] notation. *)
end

module Make (R : REPR) : S with type value = R.value and type heap = R.heap

(** {1 The store instance} *)

include S with type value := Types.value and type heap := Store.t

val initial_bindings : unit -> (string * Types.value) list
(** The [(name, PRIMOP)] pairs for the initial environment [rho_0] /
    store [sigma_0] (§12). *)

val values_to_list : Store.t -> Types.value list -> Store.t * Types.value
(** Allocate a fresh proper list holding the given values. *)
