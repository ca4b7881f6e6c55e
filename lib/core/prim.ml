module Bignum = Tailspace_bignum.Bignum
module Ast = Tailspace_ast.Ast
module Datum = Tailspace_sexp.Datum

exception Prim_error of string

(* Raised by the store instance's accessors on a location that [I_stack]
   deleted. *)
exception Dangling

type ctx = { output : Buffer.t; mutable rng : int }

let make_ctx ?(seed = 0x5eed) () = { output = Buffer.create 64; rng = seed }

let err fmt = Format.kasprintf (fun s -> raise (Prim_error s)) fmt

type ('pair, 'vector) view =
  | Bool of bool
  | Int of Bignum.t
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

module type REPR = sig
  type value
  type heap
  type pair
  type vector

  val view : value -> (pair, vector) view
  val same : value -> value -> bool
  val bool : bool -> value
  val int : Bignum.t -> value
  val sym : string -> value
  val str : string -> value
  val char : char -> value
  val nil : value
  val unspecified : value
  val undefined : value
  val cons : heap -> value -> value -> heap * value
  val list : heap -> value list -> heap * value
  val vector : heap -> value list -> heap * value
  val list_bound : heap -> int
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
  val names : unit -> string list
  val of_const : Ast.const -> value
  val tag : value -> string
  val eqv : value -> value -> bool
  val list_to_values : heap -> value -> value list option
  val to_string : ?fuel:int -> heap -> value -> string
  val display : heap -> value -> string
  val write : heap -> value -> string
end

(* [apply] and [call/cc] are intercepted by each machine; they are
   bound only so that [procedure?] and the initial environment see
   them. *)
let machine_level = [ "apply"; "call-with-current-continuation"; "call/cc" ]

module Make (R : REPR) : S with type value = R.value and type heap = R.heap =
struct
  type value = R.value
  type heap = R.heap
  type fn = ctx -> R.heap -> R.value list -> R.heap * R.value

  let view = R.view

  let of_const : Ast.const -> R.value = function
    | Ast.C_bool b -> R.bool b
    | Ast.C_int z -> R.int z
    | Ast.C_sym s -> R.sym s
    | Ast.C_str s -> R.str s
    | Ast.C_char c -> R.char c
    | Ast.C_nil -> R.nil
    | Ast.C_unspecified -> R.unspecified
    | Ast.C_undefined -> R.undefined

  let tag v =
    match view v with
    | Bool _ -> "boolean"
    | Int _ -> "number"
    | Sym _ -> "symbol"
    | Str _ -> "string"
    | Char _ -> "character"
    | Nil -> "empty list"
    | Unspecified -> "unspecified"
    | Undefined -> "undefined"
    | Pair _ -> "pair"
    | Vector _ -> "vector"
    | Closure -> "closure"
    | Continuation -> "continuation"
    | Primitive _ -> "primitive"

  (* ---------------------------------------------------------------- *)
  (* Rendering (Definition 11)                                         *)

  type style = Display | Write

  let render ~style ~fuel heap v =
    let buf = Buffer.create 64 in
    let budget = ref fuel in
    let out s =
      if !budget > 0 then begin
        decr budget;
        Buffer.add_string buf s
      end
    in
    (* A dangling location renders as the undefined value. *)
    let get f x = try f heap x with Dangling -> R.undefined in
    let rec emit v =
      if !budget > 0 then
        match view v with
        | Bool true -> out "#t"
        | Bool false -> out "#f"
        | Int z -> out (Bignum.to_string z)
        | Sym s -> out s
        | Str s -> (
            match style with
            | Display -> out s
            | Write -> out (Format.asprintf "%a" Datum.pp (Datum.Str s)))
        | Char c -> (
            match style with
            | Display -> out (String.make 1 c)
            | Write -> out (Format.asprintf "%a" Datum.pp (Datum.Char c)))
        | Nil -> out "()"
        | Unspecified -> out "#!unspecified"
        | Undefined -> out "#!undefined"
        | Closure | Continuation | Primitive _ -> out "#<PROC>"
        | Vector vec ->
            out "#(";
            for i = 0 to R.vector_length vec - 1 do
              if i > 0 then out " ";
              emit (get (fun heap vec -> R.vector_ref heap vec i) vec)
            done;
            out ")"
        | Pair p ->
            out "(";
            emit (get R.car p);
            emit_tail (get R.cdr p);
            out ")"
    and emit_tail v =
      if !budget > 0 then
        match view v with
        | Nil -> ()
        | Pair p ->
            out " ";
            emit (get R.car p);
            emit_tail (get R.cdr p)
        | _ ->
            out " . ";
            emit v
    in
    emit v;
    if !budget <= 0 then Buffer.add_string buf "...";
    Buffer.contents buf

  let to_string ?(fuel = 10_000) heap v = render ~style:Write ~fuel heap v
  let display heap v = render ~style:Display ~fuel:10_000 heap v
  let write heap v = render ~style:Write ~fuel:10_000 heap v

  (* ---------------------------------------------------------------- *)
  (* Argument plumbing                                                 *)

  let type_error name expected v =
    err "%s: expected %s, got %s" name expected (tag v)

  let arity name n args =
    if List.length args <> n then
      err "%s: expected %d arguments, got %d" name n (List.length args)

  let one name = function
    | [ a ] -> a
    | args -> (arity name 1 args; assert false)

  let two name = function
    | [ a; b ] -> (a, b)
    | args -> (arity name 2 args; assert false)

  let three name = function
    | [ a; b; c ] -> (a, b, c)
    | args -> (arity name 3 args; assert false)

  let want_int name v =
    match view v with Int z -> z | _ -> type_error name "number" v

  let want_small_int name v =
    match Bignum.to_int (want_int name v) with
    | Some n -> n
    | None -> err "%s: index too large" name

  let want_pair name v =
    match view v with Pair p -> p | _ -> type_error name "pair" v

  let want_vector name v =
    match view v with Vector vec -> vec | _ -> type_error name "vector" v

  let want_string name v =
    match view v with Str s -> s | _ -> type_error name "string" v

  let want_char name v =
    match view v with Char c -> c | _ -> type_error name "character" v

  let deref name f heap x =
    try f heap x
    with Dangling ->
      err "%s: dangling location (deleted by stack allocation?)" name

  let vector_ref name heap vec i =
    deref name (fun heap vec -> R.vector_ref heap vec i) heap vec

  (* ---------------------------------------------------------------- *)
  (* Equivalence                                                       *)

  let eqv a b =
    match (view a, view b) with
    | Bool x, Bool y -> x = y
    | Int x, Int y -> Bignum.equal x y
    | Sym x, Sym y | Str x, Str y | Primitive x, Primitive y -> String.equal x y
    | Char x, Char y -> x = y
    | Nil, Nil | Unspecified, Unspecified | Undefined, Undefined -> true
    | Pair _, Pair _ | Vector _, Vector _ | Closure, Closure
    | Continuation, Continuation ->
        R.same a b
    | _, _ -> false

  let equal heap a b =
    (* Structural equality through the heap; fuel guards against cyclic
       structures, on which R5RS allows equal? to diverge. *)
    let fuel = ref 1_000_000 in
    let rec go a b =
      decr fuel;
      if !fuel <= 0 then err "equal?: structure too deep (cyclic?)"
      else
        match (view a, view b) with
        | Pair p, Pair q ->
            go (deref "equal?" R.car heap p) (deref "equal?" R.car heap q)
            && go (deref "equal?" R.cdr heap p) (deref "equal?" R.cdr heap q)
        | Vector v1, Vector v2 ->
            let n = R.vector_length v1 in
            n = R.vector_length v2
            && (let rec elems i =
                  i >= n
                  || go (vector_ref "equal?" heap v1 i) (vector_ref "equal?" heap v2 i)
                     && elems (i + 1)
                in
                elems 0)
        | _ -> eqv a b
    in
    go a b

  (* ---------------------------------------------------------------- *)
  (* Lists                                                             *)

  let list_to_values heap v =
    let max_cells = R.list_bound heap in
    let rec go acc n v =
      if n > max_cells then None
      else
        match view v with
        | Nil -> Some (List.rev acc)
        | Pair p -> (
            match (R.car heap p, R.cdr heap p) with
            | car, cdr -> go (car :: acc) (n + 1) cdr
            | exception Dangling -> None)
        | _ -> None
    in
    go [] 0 v

  (* ---------------------------------------------------------------- *)
  (* The table                                                         *)

  let table : (string, fn) Hashtbl.t = Hashtbl.create 97
  let define name fn = Hashtbl.replace table name fn

  (* Most primitives neither read nor change the heap. *)
  let pure name f = define name (fun _ heap args -> (heap, f args))
  let unary name f = pure name (fun args -> f (one name args))

  let binary name f =
    pure name (fun args ->
        let a, b = two name args in
        f a b)

  let small n = R.int (Bignum.of_int n)

  let fold_arith name init op =
    pure name (fun args ->
        R.int (List.fold_left (fun acc v -> op acc (want_int name v)) init args))

  let fold_nonempty name op = function
    | [] -> err "%s: expected at least 1 argument" name
    | a :: rest ->
        R.int
          (List.fold_left
             (fun acc v -> op acc (want_int name v))
             (want_int name a) rest)

  let compare_chain name cmp =
    pure name (fun args ->
        let rec chain = function
          | a :: (b :: _ as rest) ->
              cmp (Bignum.compare (want_int name a) (want_int name b))
              && chain rest
          | [ _ ] | [] -> true
        in
        if List.length args < 2 then err "%s: expected at least 2 arguments" name;
        R.bool (chain args))

  let divide name op =
    binary name (fun a b ->
        let b = want_int name b in
        if Bignum.is_zero b then err "%s: division by zero" name;
        R.int (op (want_int name a) b))

  let int_pred name p = unary name (fun v -> R.bool (p (want_int name v)))
  let type_pred name p = unary name (fun v -> R.bool (p (view v)))

  let () =
    (* numbers *)
    fold_arith "+" Bignum.zero Bignum.add;
    fold_arith "*" Bignum.one Bignum.mul;
    pure "-" (function
      | [ a ] -> R.int (Bignum.neg (want_int "-" a))
      | args -> fold_nonempty "-" Bignum.sub args);
    divide "quotient" Bignum.quotient;
    divide "remainder" Bignum.remainder;
    divide "modulo" Bignum.modulo;
    compare_chain "=" (fun c -> c = 0);
    compare_chain "<" (fun c -> c < 0);
    compare_chain ">" (fun c -> c > 0);
    compare_chain "<=" (fun c -> c <= 0);
    compare_chain ">=" (fun c -> c >= 0);
    int_pred "zero?" Bignum.is_zero;
    int_pred "positive?" (fun z -> Bignum.sign z > 0);
    int_pred "negative?" (fun z -> Bignum.sign z < 0);
    int_pred "even?" Bignum.is_even;
    int_pred "odd?" (fun z -> not (Bignum.is_even z));
    unary "abs" (fun v -> R.int (Bignum.abs (want_int "abs" v)));
    pure "min" (fold_nonempty "min" Bignum.min);
    pure "max" (fold_nonempty "max" Bignum.max);
    binary "expt" (fun a b ->
        let e = want_small_int "expt" b in
        if e < 0 then err "expt: negative exponent";
        R.int (Bignum.pow (want_int "expt" a) e));
    unary "number->string" (fun v ->
        R.str (Bignum.to_string (want_int "number->string" v)));
    unary "string->number" (fun v ->
        match Bignum.of_string (want_string "string->number" v) with
        | z -> R.int z
        | exception Invalid_argument _ -> R.bool false);
    define "random" (fun ctx heap args ->
        let n = want_small_int "random" (one "random" args) in
        if n <= 0 then err "random: bound must be positive";
        (* Deterministic 48-bit LCG (same constants as POSIX drand48). *)
        ctx.rng <- ((ctx.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
        (heap, small (ctx.rng mod n)));

    (* predicates *)
    binary "eq?" (fun a b -> R.bool (eqv a b));
    binary "eqv?" (fun a b -> R.bool (eqv a b));
    define "equal?" (fun _ heap args ->
        let a, b = two "equal?" args in
        (heap, R.bool (equal heap a b)));
    type_pred "not" (function Bool false -> true | _ -> false);
    type_pred "pair?" (function Pair _ -> true | _ -> false);
    type_pred "null?" (function Nil -> true | _ -> false);
    type_pred "boolean?" (function Bool _ -> true | _ -> false);
    type_pred "symbol?" (function Sym _ -> true | _ -> false);
    type_pred "number?" (function Int _ -> true | _ -> false);
    type_pred "integer?" (function Int _ -> true | _ -> false);
    type_pred "string?" (function Str _ -> true | _ -> false);
    type_pred "char?" (function Char _ -> true | _ -> false);
    type_pred "vector?" (function Vector _ -> true | _ -> false);
    type_pred "procedure?" (function
      | Closure | Continuation | Primitive _ -> true
      | _ -> false);

    (* pairs and lists *)
    define "cons" (fun _ heap args ->
        let a, d = two "cons" args in
        R.cons heap a d);
    define "car" (fun _ heap args ->
        (heap, deref "car" R.car heap (want_pair "car" (one "car" args))));
    define "cdr" (fun _ heap args ->
        (heap, deref "cdr" R.cdr heap (want_pair "cdr" (one "cdr" args))));
    define "set-car!" (fun _ heap args ->
        let p, v = two "set-car!" args in
        (R.set_car heap (want_pair "set-car!" p) v, R.unspecified));
    define "set-cdr!" (fun _ heap args ->
        let p, v = two "set-cdr!" args in
        (R.set_cdr heap (want_pair "set-cdr!" p) v, R.unspecified));
    define "list" (fun _ heap args -> R.list heap args);

    (* vectors *)
    define "make-vector" (fun _ heap args ->
        let n, fill =
          match args with
          | [ n ] -> (n, R.unspecified)
          | [ n; fill ] -> (n, fill)
          | _ -> err "make-vector: expected 1 or 2 arguments"
        in
        let n = want_small_int "make-vector" n in
        if n < 0 then err "make-vector: negative length";
        R.vector heap (List.init n (fun _ -> fill)));
    define "vector" (fun _ heap args -> R.vector heap args);
    unary "vector-length" (fun v ->
        small (R.vector_length (want_vector "vector-length" v)));
    define "vector-ref" (fun _ heap args ->
        let v, i = two "vector-ref" args in
        let vec = want_vector "vector-ref" v in
        let i = want_small_int "vector-ref" i in
        if i < 0 || i >= R.vector_length vec then
          err "vector-ref: index out of range";
        (heap, vector_ref "vector-ref" heap vec i));
    define "vector-set!" (fun _ heap args ->
        let v, i, x = three "vector-set!" args in
        let vec = want_vector "vector-set!" v in
        let i = want_small_int "vector-set!" i in
        if i < 0 || i >= R.vector_length vec then
          err "vector-set!: index out of range";
        (R.vector_set heap vec i x, R.unspecified));
    define "vector-fill!" (fun _ heap args ->
        let v, x = two "vector-fill!" args in
        let vec = want_vector "vector-fill!" v in
        let heap = ref heap in
        for i = 0 to R.vector_length vec - 1 do
          heap := R.vector_set !heap vec i x
        done;
        (!heap, R.unspecified));

    (* strings (immutable) *)
    unary "string-length" (fun v ->
        small (String.length (want_string "string-length" v)));
    binary "string-ref" (fun s i ->
        let s = want_string "string-ref" s in
        let i = want_small_int "string-ref" i in
        if i < 0 || i >= String.length s then
          err "string-ref: index out of range";
        R.char s.[i]);
    pure "string-append" (fun args ->
        R.str (String.concat "" (List.map (want_string "string-append") args)));
    pure "substring" (fun args ->
        let s, i, j = three "substring" args in
        let s = want_string "substring" s in
        let i = want_small_int "substring" i
        and j = want_small_int "substring" j in
        if i < 0 || j < i || j > String.length s then err "substring: bad range";
        R.str (String.sub s i (j - i)));
    binary "string=?" (fun a b ->
        R.bool (String.equal (want_string "string=?" a) (want_string "string=?" b)));
    binary "string<?" (fun a b ->
        R.bool
          (String.compare (want_string "string<?" a) (want_string "string<?" b) < 0));
    unary "string->symbol" (fun v -> R.sym (want_string "string->symbol" v));
    unary "symbol->string" (fun v ->
        match view v with
        | Sym s -> R.str s
        | _ -> type_error "symbol->string" "symbol" v);
    define "string->list" (fun _ heap args ->
        let s = want_string "string->list" (one "string->list" args) in
        R.list heap (List.init (String.length s) (fun i -> R.char s.[i])));

    (* characters *)
    unary "char->integer" (fun v ->
        small (Char.code (want_char "char->integer" v)));
    unary "integer->char" (fun v ->
        let n = want_small_int "integer->char" v in
        if n < 0 || n > 255 then err "integer->char: out of range";
        R.char (Char.chr n));
    binary "char=?" (fun a b ->
        R.bool (want_char "char=?" a = want_char "char=?" b));
    binary "char<?" (fun a b ->
        R.bool (want_char "char<?" a < want_char "char<?" b));

    (* output *)
    define "display" (fun ctx heap args ->
        Buffer.add_string ctx.output (display heap (one "display" args));
        (heap, R.unspecified));
    define "write" (fun ctx heap args ->
        Buffer.add_string ctx.output (write heap (one "write" args));
        (heap, R.unspecified));
    define "newline" (fun ctx heap args ->
        arity "newline" 0 args;
        Buffer.add_char ctx.output '\n';
        (heap, R.unspecified));

    (* errors *)
    define "error" (fun _ heap args ->
        let parts =
          List.map
            (fun v -> match view v with Str s -> s | _ -> write heap v)
            args
        in
        err "error: %s" (String.concat " " parts))

  let find name = Hashtbl.find_opt table name

  let names () =
    machine_level @ Hashtbl.fold (fun name _ acc -> name :: acc) table []
end

(* ------------------------------------------------------------------ *)
(* The store instance: the reference machines and the denotational
   engine. Pairs and vectors hold store locations; identity is
   location identity.                                                  *)

module Store_repr = struct
  type value = Types.value
  type heap = Store.t
  type pair = Types.loc * Types.loc
  type vector = Types.loc array

  let view : value -> (pair, vector) view = function
    | Types.Bool b -> Bool b
    | Types.Int z -> Int z
    | Types.Sym s -> Sym s
    | Types.Str s -> Str s
    | Types.Char c -> Char c
    | Types.Nil -> Nil
    | Types.Unspecified -> Unspecified
    | Types.Undefined -> Undefined
    | Types.Pair (a, d) -> Pair (a, d)
    | Types.Vector locs -> Vector locs
    | Types.Closure _ -> Closure
    | Types.Escape _ -> Continuation
    | Types.Primop name -> Primitive name

  let same a b =
    match (a, b) with
    | Types.Pair (a1, d1), Types.Pair (a2, d2) -> a1 = a2 && d1 = d2
    | Types.Vector v1, Types.Vector v2 -> v1 == v2 || v1 = v2
    | Types.Closure (t1, _, _), Types.Closure (t2, _, _)
    | Types.Escape (t1, _), Types.Escape (t2, _) ->
        t1 = t2
    | _, _ -> false

  let bool b = Types.Bool b
  let int z = Types.Int z
  let sym s = Types.Sym s
  let str s = Types.Str s
  let char c = Types.Char c
  let nil = Types.Nil
  let unspecified = Types.Unspecified
  let undefined = Types.Undefined

  let cons store a d =
    let store, la = Store.alloc store a in
    let store, ld = Store.alloc store d in
    (store, Types.Pair (la, ld))

  (* Each cell's tail is allocated before its head; locations, and so
     censuses, depend on this order. *)
  let list store vs =
    List.fold_right
      (fun v (store, tail) ->
        let store, d = Store.alloc store tail in
        let store, a = Store.alloc store v in
        (store, Types.Pair (a, d)))
      vs (store, Types.Nil)

  let list_bound store = Store.cardinal store + 1

  let deref store l =
    match Store.find_opt store l with Some v -> v | None -> raise Dangling

  let car store (a, _) = deref store a
  let cdr store (_, d) = deref store d
  let set_car store (a, _) v = Store.set store a v
  let set_cdr store (_, d) v = Store.set store d v

  let vector store vs =
    let store, locs = Store.alloc_many store vs in
    (store, Types.Vector (Array.of_list locs))

  let vector_length = Array.length
  let vector_ref store locs i = deref store locs.(i)
  let vector_set store locs i v = Store.set store locs.(i) v
end

include Make (Store_repr)

let values_to_list = Store_repr.list

let initial_bindings () =
  List.sort compare (names ()) |> List.map (fun name -> (name, Types.Primop name))
