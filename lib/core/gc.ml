module Env = Types.Env

(* Tracing over the reference visitor. Environments are traced as
   overlay-plus-base, with each distinct base (physically) traced once
   per collection: every run-time environment shares the single global
   base, so the hundred-odd global bindings cost O(1) per frame instead
   of O(globals). A shadowed base binding is still traced, which can pin
   a dead global cell — a few words of documented overcount, never
   affecting fresh locations. The visitor's closures are built once per
   trace, and nothing is allocated per frame. *)
let rec base_seen env = function
  | [] -> false
  | b :: bs -> Env.base_eq env b || base_seen env bs

let collect ~control_locs ~env ~cont store =
  let live : (Types.loc, unit) Hashtbl.t = Hashtbl.create 64 in
  let bases = ref [] in
  let rec visit l =
    if not (Hashtbl.mem live l) then begin
      Hashtbl.add live l ();
      match Store.find_opt store l with
      | None -> ()
      | Some v -> Types.value_refs refs v
    end
  and binding _ l = visit l
  and refs =
    {
      Types.loc = visit;
      env =
        (fun env ->
          Env.iter_overlay binding env;
          if Env.has_base env && not (base_seen env !bases) then begin
            bases := env :: !bases;
            Env.iter_base binding env
          end);
      held = (fun v -> Types.value_refs refs v);
      captured = (fun k -> Types.cont_refs refs k);
    }
  in
  List.iter visit control_locs;
  refs.env env;
  Types.cont_refs refs cont;
  let dead =
    Store.fold
      (fun l _ acc -> if Hashtbl.mem live l then acc else l :: acc)
      store []
  in
  (Store.remove_all store dead, List.length dead)

(* One-level occurrence check for the I_stack return rule. Candidates
   are locations freshly allocated by a call, so they can never appear
   in a global base (built before the run); only overlays are scanned. *)
let occurs_in_retained ~candidates ~control_locs ~env ~cont ~retained =
  let hit : (Types.loc, unit) Hashtbl.t = Hashtbl.create 8 in
  let check l = if Hashtbl.mem candidates l then Hashtbl.replace hit l () in
  let binding _ l = check l in
  let rec refs =
    {
      Types.loc = check;
      env = (fun env -> Env.iter_overlay binding env);
      held = (fun v -> Types.value_refs refs v);
      captured = (fun k -> Types.cont_refs refs k);
    }
  in
  List.iter check control_locs;
  refs.env env;
  Types.cont_refs refs cont;
  Store.iter (fun _ v -> Types.value_refs refs v) retained;
  hit
