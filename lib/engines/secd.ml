module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Annot = Tailspace_analysis.Annot
module Prim = Tailspace_core.Prim

(* ------------------------------------------------------------------ *)
(* Code                                                                *)

type instr =
  | IConst of Ast.const
  | ILocal of int * int
  | IGlobal of string
  | IClosure of template
  | ISel of code * code
  | ISelTail of code * code
  | IJoin
  | ISetLocal of int * int
  | ISetGlobal of string
  | IApply of int
  | ITailApply of int
  | IReturn

and code = instr list

and template = { nparams : int; variadic : bool; body : code }

(* ------------------------------------------------------------------ *)
(* Compiler: lexical addressing against a compile-time environment of
   name frames; anything unresolved is a global.                       *)

let compile ?(proper_tail_calls = true) ?annot expr =
  (* With an annotation table the tail/non-tail decision is a table
     lookup instead of a structural recursion scheme; nodes the pass
     marked [Both] (physically shared across positions) or never saw
     fall back to the structural answer, so the emitted code is
     identical either way (asserted in the tests). *)
  (match annot with Some a -> Annot.record a expr | None -> ());
  let resolve_tail e structural =
    match annot with
    | None -> structural
    | Some a -> (
        match Annot.tail_status a e with
        | Some Annot.Tail -> true
        | Some Annot.Nontail -> false
        | Some Annot.Both | None -> structural)
  in
  let index_of x names =
    let rec go i = function
      | [] -> None
      | n :: rest -> if String.equal n x then Some i else go (i + 1) rest
    in
    go 0 names
  in
  let resolve cenv x =
    let rec frames d = function
      | [] -> None
      | names :: rest -> (
          match index_of x names with
          | Some i -> Some (d, i)
          | None -> frames (d + 1) rest)
    in
    frames 0 cenv
  in
  let rec comp ~tail e cenv =
    let tail = resolve_tail e tail in
    match (e : Ast.expr) with
    | Ast.If (e0, e1, e2) ->
        if tail then
          comp ~tail:false e0 cenv
          @ [ ISelTail (comp ~tail:true e1 cenv, comp ~tail:true e2 cenv) ]
        else
          comp ~tail:false e0 cenv
          @ [
              ISel
                ( comp ~tail:false e1 cenv @ [ IJoin ],
                  comp ~tail:false e2 cenv @ [ IJoin ] );
            ]
    | Ast.Call (f, args) ->
        (* A tail call with [proper_tail_calls = false] compiles to the
           classic [IApply]; the callee's implicit return at end-of-code
           plays the [IReturn]. *)
        let apply =
          if tail && proper_tail_calls then ITailApply (List.length args)
          else IApply (List.length args)
        in
        comp ~tail:false f cenv
        @ List.concat_map (fun a -> comp ~tail:false a cenv) args
        @ [ apply ]
    | Ast.Quote _ | Ast.Var _ | Ast.Lambda _ | Ast.Set _ ->
        let base =
          match e with
          | Ast.Quote c -> [ IConst c ]
          | Ast.Var x -> (
              match resolve cenv x with
              | Some (d, i) -> [ ILocal (d, i) ]
              | None -> [ IGlobal x ])
          | Ast.Lambda l -> [ IClosure (template l cenv) ]
          | Ast.Set (x, e0) -> (
              comp ~tail:false e0 cenv
              @
              match resolve cenv x with
              | Some (d, i) -> [ ISetLocal (d, i) ]
              | None -> [ ISetGlobal x ])
          | Ast.If _ | Ast.Call _ -> assert false
        in
        if tail then base @ [ IReturn ] else base
  and template (l : Ast.lambda) cenv =
    let names =
      match l.rest with Some r -> l.params @ [ r ] | None -> l.params
    in
    {
      nparams = List.length l.params;
      variadic = Option.is_some l.rest;
      body = comp ~tail:true l.body (names :: cenv);
    }
  in
  comp ~tail:false expr []

(* ------------------------------------------------------------------ *)
(* Runtime values: OCaml-heap data, mutable in place — this engine is a
   realistic implementation, not a store semantics.                    *)

type value =
  | Int of Bignum.t
  | Bool of bool
  | Sym of string
  | Str of string
  | Char of char
  | Nil
  | Unspecified
  | Undefined
  | Pair of cell
  | Vector of value array
  | Closure of closure
  | Prim of string

and cell = { mutable car : value; mutable cdr : value }
and closure = { template : template; env : env }
and env = value array list

exception Secd_error of string

let err fmt = Format.kasprintf (fun m -> raise (Secd_error m)) fmt

(* The SECD values as a [Prim] representation: the heap is the OCaml
   heap, mutated in place, and identity is physical. *)
module Repr = struct
  type nonrec value = value
  type heap = unit
  type pair = cell
  type vector = value array

  let view : value -> (pair, vector) Prim.view = function
    | Int z -> Prim.Int z
    | Bool b -> Prim.Bool b
    | Sym s -> Prim.Sym s
    | Str s -> Prim.Str s
    | Char c -> Prim.Char c
    | Nil -> Prim.Nil
    | Unspecified -> Prim.Unspecified
    | Undefined -> Prim.Undefined
    | Pair c -> Prim.Pair c
    | Vector a -> Prim.Vector a
    | Closure _ -> Prim.Closure
    | Prim name -> Prim.Primitive name

  let same = ( == )

  let bool b = Bool b
  let int z = Int z
  let sym s = Sym s
  let str s = Str s
  let char c = Char c
  let nil = Nil
  let unspecified = Unspecified
  let undefined = Undefined
  let cons () a d = ((), Pair { car = a; cdr = d })

  let list () vs =
    ((), List.fold_right (fun v tail -> Pair { car = v; cdr = tail }) vs Nil)

  let list_bound () = max_int
  let car () c = c.car
  let cdr () c = c.cdr
  let set_car () c v = c.car <- v
  let set_cdr () c v = c.cdr <- v
  let vector () vs = ((), Vector (Array.of_list vs))
  let vector_length = Array.length
  let vector_ref () a i = a.(i)
  let vector_set () a i v = a.(i) <- v
end

module P = Prim.Make (Repr)

(* The subset of [Prim]'s table this machine binds as globals (the
   corpus battery needs no more; [live_words] counts them). *)
let prim_names =
  [
    "+"; "*"; "-"; "quotient"; "remainder"; "modulo"; "abs"; "="; "<"; ">";
    "<="; ">="; "zero?"; "not"; "eq?"; "eqv?"; "pair?"; "null?"; "procedure?";
    "cons"; "car"; "cdr"; "set-car!"; "set-cdr!"; "list"; "make-vector";
    "vector"; "vector-length"; "vector-ref"; "vector-set!"; "error";
  ]

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

type dump_entry =
  | DFrame of value list * env * code
  | DJoin of code

type state = {
  mutable s : value list;
  mutable e : env;
  mutable c : code;
  mutable d : dump_entry list;
  globals : (string, value) Hashtbl.t;
  ctx : Prim.ctx;
}

(* ------------------------------------------------------------------ *)
(* Live-space measurement: physical-identity walk, shared structure
   counted once — actual memory, in the same word units as Figure 7.   *)

module Ptbl = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let live_words st =
  let seen : unit Ptbl.t = Ptbl.create 64 in
  let once obj = if Ptbl.mem seen obj then false else (Ptbl.add seen obj (); true) in
  let total = ref 0 in
  let add n = total := !total + n in
  let rec value v =
    match v with
    | Int z -> add (1 + Bignum.bit_length z)
    | Str s -> add (1 + String.length s)
    | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Prim _ -> add 1
    | Pair cell ->
        if once (Obj.repr cell) then begin
          add 3;
          value cell.car;
          value cell.cdr
        end
    | Vector arr ->
        if once (Obj.repr arr) then begin
          add (1 + Array.length arr);
          Array.iter value arr
        end
    | Closure clo ->
        if once (Obj.repr clo) then begin
          add 2 (* code pointer + environment pointer *);
          envir clo.env
        end
  and envir e =
    List.iter
      (fun frame ->
        if once (Obj.repr frame) then begin
          add (1 + Array.length frame);
          Array.iter value frame
        end)
      e
  in
  let dump_entry = function
    | DFrame (s, e, _) ->
        add 3;
        List.iter (fun v -> add 1; value v) s;
        envir e
    | DJoin _ -> add 1
  in
  List.iter (fun v -> add 1; value v) st.s;
  envir st.e;
  List.iter dump_entry st.d;
  Hashtbl.iter (fun _ v -> add 1; value v) st.globals;
  !total

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type outcome =
  | Done of string
  | Error of string
  | Aborted of Resilience.abort_reason

type result = { outcome : outcome; steps : int; peak_words : int }

let pop st = match st.s with v :: rest -> st.s <- rest; v | [] -> err "stack underflow"

let pop_n st n =
  let rec go n acc = if n = 0 then acc else go (n - 1) (pop st :: acc) in
  go n []

let frame_lookup st depth slot =
  match List.nth_opt st.e depth with
  | Some frame when slot < Array.length frame -> frame.(slot)
  | _ -> err "bad lexical address %d/%d" depth slot

let do_return st result =
  match st.d with
  | DFrame (s0, e0, c0) :: rest ->
      st.s <- result :: s0;
      st.e <- e0;
      st.c <- c0;
      st.d <- rest;
      None
  | DJoin _ :: _ -> err "return through a join point (compiler bug)"
  | [] -> Some result

let enter_closure st clo args ~push_frame =
  let t = clo.template in
  let n = List.length args in
  let ok = if t.variadic then n >= t.nparams else n = t.nparams in
  if not ok then
    err "arity: procedure expects %s%d arguments, got %d"
      (if t.variadic then "at least " else "")
      t.nparams n;
  let size = t.nparams + if t.variadic then 1 else 0 in
  let frame = Array.make size Undefined in
  let rec fill i = function
    | args when i = t.nparams ->
        if t.variadic then frame.(i) <- snd (Repr.list () args)
        else assert (args = [])
    | arg :: rest ->
        frame.(i) <- arg;
        fill (i + 1) rest
    | [] -> assert false
  in
  if size > 0 then fill 0 args;
  if push_frame then st.d <- DFrame (st.s, st.e, st.c) :: st.d;
  st.s <- [];
  st.e <- frame :: clo.env;
  st.c <- t.body

(* returns Some answer when the program halts *)
let exec_instr st instr =
  match instr with
  | IConst c ->
      st.s <- P.of_const c :: st.s;
      None
  | ILocal (d, i) -> (
      match frame_lookup st d i with
      | Undefined -> err "letrec variable used before initialization"
      | v ->
          st.s <- v :: st.s;
          None)
  | IGlobal x -> (
      match Hashtbl.find_opt st.globals x with
      | Some v ->
          st.s <- v :: st.s;
          None
      | None -> err "unbound global: %s" x)
  | IClosure t ->
      st.s <- Closure { template = t; env = st.e } :: st.s;
      None
  | ISel (c1, c2) ->
      let v = pop st in
      st.d <- DJoin st.c :: st.d;
      st.c <- (if v = Bool false then c2 else c1);
      None
  | ISelTail (c1, c2) ->
      let v = pop st in
      st.c <- (if v = Bool false then c2 else c1);
      None
  | IJoin -> (
      match st.d with
      | DJoin c0 :: rest ->
          st.c <- c0;
          st.d <- rest;
          None
      | _ -> err "join without a join point (compiler bug)")
  | ISetLocal (d, i) -> (
      let v = pop st in
      match List.nth_opt st.e d with
      | Some frame when i < Array.length frame ->
          frame.(i) <- v;
          st.s <- Unspecified :: st.s;
          None
      | _ -> err "bad lexical address %d/%d" d i)
  | ISetGlobal x ->
      let v = pop st in
      if not (Hashtbl.mem st.globals x) then err "set!: unbound global %s" x;
      Hashtbl.replace st.globals x v;
      st.s <- Unspecified :: st.s;
      None
  | IApply n | ITailApply n -> (
      let tail = match instr with ITailApply _ -> true | _ -> false in
      let args = pop_n st n in
      let f = pop st in
      match f with
      | Closure clo ->
          enter_closure st clo args ~push_frame:(not tail);
          None
      | Prim name ->
          let result =
            match P.find name with
            | Some fn -> snd (fn st.ctx () args)
            | None -> err "unknown primitive: %s" name
          in
          if tail then do_return st result
          else begin
            st.s <- result :: st.s;
            None
          end
      | v -> err "attempt to call a non-procedure (%s)" (P.tag v))
  | IReturn -> do_return st (pop st)

let run ?(fuel = 20_000_000) ?budget ?(proper_tail_calls = true) ?telemetry
    ?annot expr =
  let budget = Option.value budget ~default:Resilience.Budget.unlimited in
  let guard = Resilience.Guard.start ~default_fuel:fuel budget in
  let code = compile ~proper_tail_calls ?annot expr in
  let globals = Hashtbl.create 64 in
  List.iter (fun name -> Hashtbl.replace globals name (Prim name)) prim_names;
  let st = { s = []; e = []; c = code; d = []; globals; ctx = Prim.make_ctx () } in
  let peak = ref 0 in
  let steps = ref 0 in
  let measure () =
    let words = live_words st in
    peak := Stdlib.max !peak words;
    match telemetry with
    | Some tl ->
        (* the dump plays the continuation's role; there is no store, so
           the store-cells channel is unused *)
        Telemetry.record_step tl ~step:!steps ~space:words
          ~cont_depth:(List.length st.d) ~store_cells:0
    | None -> ()
  in
  let finish outcome =
    (match telemetry with
    | Some tl ->
        Telemetry.note_steps tl !steps;
        Telemetry.note_peak tl !peak;
        (match outcome with
        | Error m -> Telemetry.record_stuck tl ~step:!steps ~message:m
        | Done _ | Aborted _ -> ())
    | None -> ());
    { outcome; steps = !steps; peak_words = !peak }
  in
  let rec loop () =
    measure ();
    (* [measure] just walked the genuinely live words, so the peak is an
       exact live figure — no collect-first step is needed here *)
    match
      match Resilience.Guard.space_budget guard with
      | Some b when !peak > b ->
          Some (Resilience.Space_exceeded { budget = b; live = !peak })
      | _ -> Resilience.Guard.check guard ~steps:!steps ~output_bytes:0
    with
    | Some reason -> finish (Aborted reason)
    | None ->
    (
      match st.c with
      | [] -> (
          (* implicit return at the end of a code sequence *)
          match do_return st (pop st) with
          | Some answer -> finish (Done (P.to_string () answer))
          | None ->
              incr steps;
              loop ())
      | instr :: rest -> (
          st.c <- rest;
          incr steps;
          match exec_instr st instr with
          | Some answer -> finish (Done (P.to_string () answer))
          | None -> loop ()))
  in
  try loop () with Secd_error m | Prim.Prim_error m -> finish (Error m)

let run_program ?fuel ?budget ?proper_tail_calls ?telemetry ?annot ~program
    ~input () =
  run ?fuel ?budget ?proper_tail_calls ?telemetry ?annot
    (Ast.Call (program, [ input ]))
