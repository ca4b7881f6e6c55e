module Bignum = Tailspace_bignum.Bignum
module Ast = Tailspace_ast.Ast
module Env = Env

type loc = Env.loc

type value =
  | Bool of bool
  | Int of Bignum.t
  | Sym of string
  | Str of string
  | Char of char
  | Nil
  | Unspecified
  | Undefined
  | Pair of loc * loc
  | Vector of loc array
  | Closure of loc * Ast.lambda * Env.t
  | Escape of loc * cont
  | Primop of string

and cont =
  | Halt
  | Select of {
      e1 : Ast.expr;
      e2 : Ast.expr;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
          (* provenance site of the expression that pushed the frame;
             -1 when provenance is off. Sites are bookkeeping, not
             space: they never contribute to [size]. *)
    }
  | Assign of {
      id : string;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Push of {
      pending : int;
      remaining : (int * Ast.expr) list;
      evaluated : (int * value) list;
      fv_rest : Ast.Iset.t list;
          (* precomputed I_sfs restriction sets, one per element of
             [remaining] (empty when unannotated or not Sfs); holds no
             locations and no space — it names variables the machine
             would otherwise recompute from [remaining] *)
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Call of {
      vals : value list;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Return of {
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Return_stack of {
      dels : loc list;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }

let cont_space = function
  | Halt -> 1
  | Select { size; _ }
  | Assign { size; _ }
  | Push { size; _ }
  | Call { size; _ }
  | Return { size; _ }
  | Return_stack { size; _ } ->
      size

(* Frame count of a continuation, cached like [size] so per-step depth
   observation is O(1). *)
let cont_depth = function
  | Halt -> 0
  | Select { depth; _ }
  | Assign { depth; _ }
  | Push { depth; _ }
  | Call { depth; _ }
  | Return { depth; _ }
  | Return_stack { depth; _ } ->
      depth

let select ?(site = -1) ~e1 ~e2 ~env ~next () =
  Select
    {
      e1;
      e2;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let assign ?(site = -1) ~id ~env ~next () =
  Assign
    {
      id;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

(* Figure 7: 1 + m + n + |Dom rho| + space(kappa). The expression being
   evaluated ([pending]) is in the accumulator, not in the frame, so [m]
   counts only [remaining]. *)
let push ?(fv_rest = []) ?(site = -1) ~pending ~remaining ~evaluated ~env
    ~next () =
  let m = List.length remaining and n = List.length evaluated in
  Push
    {
      pending;
      remaining;
      evaluated;
      fv_rest;
      env;
      next;
      size = 1 + m + n + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let call ?(site = -1) ~vals ~next () =
  Call
    {
      vals;
      next;
      size = 1 + List.length vals + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let return_gc ?(site = -1) ~env ~next () =
  Return
    {
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let return_stack ?(site = -1) ~dels ~env ~next () =
  Return_stack
    {
      dels;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let value_space = function
  | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Primop _ -> 1
  | Int z -> 1 + Bignum.bit_length z
  | Str s -> 1 + String.length s
  | Pair _ -> 3
  | Vector locs -> 1 + Array.length locs
  | Closure (_, _, env) -> 1 + Env.cardinal env
  | Escape (_, k) -> 1 + cont_space k

(* The reference visitor: the one place that says what each value and
   frame holds. Every pointer walk (collection, the I_stack occurs check,
   [value_locs], the census roots) is written over it. *)
type refs = {
  loc : loc -> unit;
  env : Env.t -> unit;
  held : value -> unit;
  captured : cont -> unit;
}

let value_refs r = function
  | Bool _ | Int _ | Sym _ | Str _ | Char _ | Nil | Unspecified | Undefined
  | Primop _ ->
      ()
  | Pair (a, d) ->
      r.loc a;
      r.loc d
  | Vector locs -> Array.iter r.loc locs
  | Closure (tag, _, env) ->
      r.loc tag;
      r.env env
  | Escape (tag, k) ->
      r.loc tag;
      r.captured k

(* A top-level recursion, not a [List.iter] closure over [r], so a walk
   allocates nothing per frame. *)
let rec evaluated_refs r = function
  | [] -> ()
  | (_, v) :: rest ->
      r.held v;
      evaluated_refs r rest

let frame_refs r = function
  | Halt -> Halt
  | Select { env; next; _ } | Assign { env; next; _ } | Return { env; next; _ }
    ->
      r.env env;
      next
  | Push { evaluated; env; next; _ } ->
      r.env env;
      evaluated_refs r evaluated;
      next
  | Call { vals; next; _ } ->
      List.iter r.held vals;
      next
  | Return_stack { dels; env; next; _ } ->
      (* the deletion set counts as an occurrence (§8): stack-allocated
         locations live until their frame returns, even when garbage *)
      List.iter r.loc dels;
      r.env env;
      next

let rec cont_refs r = function Halt -> () | k -> cont_refs r (frame_refs r k)

let frame_site = function
  | Halt -> -1
  | Select { site; _ }
  | Assign { site; _ }
  | Push { site; _ }
  | Call { site; _ }
  | Return { site; _ }
  | Return_stack { site; _ } ->
      site

(* Locations are pushed onto [out] in reverse. A held value contributes
   its [value_locs] as one block and a captured continuation its
   locations last-first, the order the census retainer walk has always
   visited them in. *)
let rec locs_into out =
  {
    loc = (fun l -> out := l :: !out);
    env = (fun e -> out := List.rev_append (Env.locations e) !out);
    held = (fun v -> out := List.rev_append (value_locs v) !out);
    captured =
      (fun k ->
        let inner = ref [] in
        cont_refs (locs_into inner) k;
        out := List.rev_append !inner !out);
  }

and value_locs v =
  let out = ref [] in
  value_refs (locs_into out) v;
  List.rev !out

let frame_locs k =
  let out = ref [] in
  let next = frame_refs (locs_into out) k in
  (List.rev !out, next)
