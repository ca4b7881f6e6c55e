module Env = Types.Env

type owner = Cell | Frame | Halt | Control

(* The Figure 8 walk, each word charged to its owner. Closures cost one
   word plus shared bindings; escapes cost one word plus their
   continuation (walked with per-frame overheads and shared bindings).
   Values held in push/call frames are *not* walked: Figures 7 and 8
   charge them exactly one word via the frame's [n] term, and counting
   more would break the pointwise bound U_X <= S_X of §13. Each
   (identifier, location) binding counts once per configuration and is
   charged, when first seen, to the cell it names, which makes the
   attribution independent of traversal order. Owners are constant
   constructors with the cell or site passed beside them, so the
   per-step walk allocates nothing per charge. *)
let linked_charges ~control ~env ~cont ~store charge =
  let bindings : (string * Types.loc, unit) Hashtbl.t = Hashtbl.create 64 in
  let bind x l =
    let n = Hashtbl.length bindings in
    Hashtbl.replace bindings (x, l) ();
    if Hashtbl.length bindings > n then charge Cell l 1
  in
  let rec value owner id (v : Types.value) =
    match v with
    | Closure (_, _, env) ->
        Env.iter bind env;
        charge owner id 1
    | Escape (_, k) ->
        charge owner id 1;
        frames k
    | v -> charge owner id (Types.value_space v)
  (* Frame overheads: one word per frame plus, for push and call frames,
     one per held expression or value; saved environments contribute
     bindings only. *)
  and frames (k : Types.cont) =
    match k with
    | Halt -> charge Halt (-1) 1
    | Select { env; next; site; _ }
    | Assign { env; next; site; _ }
    | Return { env; next; site; _ }
    | Return_stack { env; next; site; _ } ->
        Env.iter bind env;
        charge Frame site 1;
        frames next
    | Push { remaining; evaluated; env; next; site; _ } ->
        Env.iter bind env;
        charge Frame site (1 + List.length remaining + List.length evaluated);
        frames next
    | Call { vals; next; site; _ } ->
        charge Frame site (1 + List.length vals);
        frames next
  in
  Env.iter bind env;
  (match control with `Expr _ -> () | `Value v -> value Control (-1) v);
  frames cont;
  Store.iter
    (fun l v ->
      charge Cell l 1;
      value Cell l v)
    store

let linked_config_space ~control ~env ~cont ~store =
  let words = ref 0 in
  linked_charges ~control ~env ~cont ~store (fun _ _ w -> words := !words + w);
  !words

let pointer_bits store =
  let rec ceil_log2 b p n = if p >= n then b else ceil_log2 (b + 1) (p * 2) n in
  max 1 (ceil_log2 0 1 (Store.cardinal store))
