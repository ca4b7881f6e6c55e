(* Workload "models": Figure 8's linked model and the pointer-size log
   model. Theorem 26's P_k ladder, Theorem 25's four separations under
   [Flat; Linked; Log] (E10's points, through [Runner.run_once], since
   LogHier's fixed corpus rows and P_k ladder cannot be sized down),
   and per-site censuses of a seeded draw of corpus points over all six
   variants. *)

open Util
module L = Layers
module E = Tailspace_harness.Experiments
module Pool = Tailspace_parallel.Pool
module Census = Tailspace_core.Census
module Prov = Tailspace_provenance.Provenance
module M = L.M
module SM = L.SM
module R = L.R

let jobs = 2
let all_models = [ SM.Flat; SM.Linked; SM.Log ]

(* E10's separations: each family with the two variants it compares. *)
let separations =
  [
    ("stack/gc", M.Stack, M.Gc);
    ("gc/tail", M.Gc, M.Tail);
    ("tail/evlis", M.Tail, M.Evlis);
    ("evlis/sfs", M.Evlis, M.Sfs);
  ]

type point = {
  id : string;
  source : string;
  variant : M.variant;
  n : int;
  entry : L.Corpus.entry option;  (** corpus points carry an answer oracle *)
}

type plan = { pk_ns : int list; seps : point list; census : point list }

(* Corpus entries the census draw picks from, each at its smallest
   check input: six entries whose runs take 348 to 483 steps on
   I_tail, so that a draw's cost depends little on the seed. *)
let census_entries =
  List.filter_map L.Corpus.find
    [ "fib-iter"; "hanoi"; "cps-loop"; "string-words"; "church-pairs";
      "mutual-ack" ]

let plan ~seed =
  let rng = rng ~seed "models" in
  let near base spread = base + Random.State.int rng (spread + 1) in
  let pk_ns = [ near 6 1; near 9 1; 13 ] in
  let sep_ns = [ near 4 1; near 8 1; 12 ] in
  let seps =
    List.concat_map
      (fun (sep, x, y) ->
        let source = List.assoc sep L.Families.separators in
        List.concat_map
          (fun variant ->
            List.map
              (fun n ->
                { id = Printf.sprintf "%s/%s/%d" sep (M.variant_name variant) n;
                  source; variant; n; entry = None })
              sep_ns)
          [ x; y ])
      separations
  in
  (* two census points per variant: the seed deals the six entries to
     the variant pairs (tail, evlis), (gc, free), (stack, sfs), so
     every entry runs once with a big environment and once with a
     smaller one, and every variant keeps its share *)
  let variants = Array.of_list M.all_variants in
  let census =
    List.concat
      (List.mapi
         (fun i (e : L.Corpus.entry) ->
           let n = List.fold_left min max_int (List.map fst e.checks) in
           List.map
             (fun variant ->
               { id = Printf.sprintf "census/%s/%s/%d" e.name (M.variant_name variant) n;
                 source = e.source; variant; n; entry = Some e })
             [ variants.(i mod 3); variants.(3 + (i mod 3)) ])
         (shuffle rng census_entries))
  in
  { pk_ns; seps; census }

(* One point under all three models; census points also decompose each
   peak per site. *)
let measure_point programs (p : point) =
  let program = List.assoc p.source programs in
  let config = M.Config.make ~variant:p.variant () in
  match p.entry with
  | None ->
      let opts = M.Run_opts.make ~measure:all_models () in
      (R.run_once ~opts ~config ~program ~n:p.n (), [])
  | Some _ ->
      let census = Census.create () in
      let opts = M.Run_opts.make ~measure:all_models ~provenance:census () in
      let m = R.run_once ~opts ~config ~program ~n:p.n () in
      let rows =
        Trace.span ~id:p.id "core.census" (fun () ->
            List.map
              (fun (model, f) ->
                (model, Option.bind (R.peak_of m model) (fun peak -> f census ~peak)))
              [ (SM.Flat, Census.flat_census); (SM.Linked, Census.linked_census);
                (SM.Log, Census.log_census) ])
      in
      (m, rows)

let check_point checks digest oracle (p : point) ((m : R.measurement), censuses) =
  let answer = L.status_string m.R.status in
  let answered = match m.R.status with R.Answer _ -> true | _ -> false in
  let answer_ok =
    match p.entry with Some e -> L.answer_ok oracle e p.n answer | None -> answered
  in
  let census_ok =
    List.for_all
      (fun (model, c) ->
        match (c, R.peak_of m model) with
        | Some c, Some peak -> Prov.total c = peak
        | _ -> false)
      censuses
  in
  Checks.item checks
    (answer_ok && L.space_laws_ok m && census_ok
    && List.length m.R.peaks = List.length all_models)
    ("models point " ^ p.id);
  Digest_acc.add digest
    [ p.id; answer; string_of_int m.R.steps; L.peaks_string m.R.peaks ]

let check_thm26 checks digest (r : E.Thm26.result) =
  List.iter
    (fun (row : E.Thm26.row) ->
      Checks.item checks
        (row.u_tail > 0 && row.u_tail <= row.s_tail)
        (Printf.sprintf "thm26 N=%d: U_tail <= S_tail" row.n);
      Digest_acc.add digest
        [ "thm26"; string_of_int row.n; string_of_int row.u_tail;
          string_of_int row.s_tail; string_of_int row.s_sfs ])
    r.rows

(* One pass: Thm26, then the separation and census points on the pool.
   Returns the results, the three parts' wall times, and each point's
   own run time, taken inside its worker. *)
let one_pass pl programs pool =
  let timed_map points =
    let rs =
      Pool.map ~pool (fun p -> time (fun () -> measure_point programs p)) points
    in
    (List.map fst rs, List.map snd rs)
  in
  let thm26, t26 = time (fun () -> E.Thm26.run ~pool ~ns:pl.pk_ns ()) in
  let (seps, sep_times), ts = time (fun () -> timed_map pl.seps) in
  let (census, census_times), tc =
    time (fun () ->
        let rs, times = timed_map pl.census in
        List.iter
          (fun (_, rows) ->
            List.iter
              (fun (_, c) ->
                Option.iter
                  (fun c ->
                    ignore
                      (Trace.span "provenance.encode" (fun () ->
                           Json.to_string (Prov.to_json c))))
                  c)
              rows)
          rs;
        (rs, times))
  in
  ((thm26, seps, census), [ t26; ts; tc ], sep_times @ census_times)

let check_pass checks digest oracle pl (thm26, seps, census) =
  check_thm26 checks digest thm26;
  List.iter2 (check_point checks digest oracle) pl.seps seps;
  List.iter2 (check_point checks digest oracle) pl.census census

let setup ~seed () =
  let pl = plan ~seed in
  let sources =
    List.sort_uniq compare
      (List.map (fun p -> p.source) (pl.seps @ pl.census)
      @ List.map L.Families.pk_program pl.pk_ns)
  in
  let programs = List.combine sources (Common.prepare sources) in
  (pl, programs, Pool.create ~jobs ())

(* Differential attribution of the heavy models: each point's exec
   under [Flat; Linked] and [Flat; Log] minus the same exec under
   [Flat] alone, summed per variant. *)
let model_extras pl programs =
  let exec_time p measure =
    let program = List.assoc p.source programs in
    let t = M.create_with (M.Config.make ~variant:p.variant ()) in
    let opts = M.Run_opts.make ~measure () in
    snd (time (fun () -> M.exec_program ~opts t ~program ~input:(R.input_expr p.n)))
  in
  List.concat_map
    (fun v ->
      let pts = List.filter (fun p -> p.variant = v) (pl.seps @ pl.census) in
      let extra model =
        sum
          (List.map
             (fun p -> exec_time p [ SM.Flat; model ] -. exec_time p [ SM.Flat ])
             pts)
      in
      let name = M.variant_name v in
      [
        metric ("core.linked_extra_s." ^ name) "s" (extra SM.Linked);
        metric ("core.log_extra_s." ^ name) "s" (extra SM.Log);
      ])
    M.all_variants

let run ~seed ~seconds ~traced =
  let checks = Checks.create () and digest = Digest_acc.create () in
  let oracle = L.oracle () in
  let (pl, programs, pool), setup_s =
    repeat_setup ~k:15 ~teardown:(fun (_, _, p) -> Pool.shutdown p) (setup ~seed)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let plan_note =
    ( "plan",
      Printf.sprintf "pk=%s seps=%d points census=%d points jobs=%d"
        (Common.ints pl.pk_ns) (List.length pl.seps) (List.length pl.census) jobs )
  in
  if not traced then begin
    let passes = repeat_for ~seconds (fun () -> one_pass pl programs pool) in
    let results_of ((r, _, _), _) = r in
    check_pass checks digest oracle pl (results_of (List.hd passes));
    let first = Digest_acc.hex digest in
    List.iter
      (fun p ->
        let d = Digest_acc.create () and c = Checks.create () in
        check_pass c d oracle pl (results_of p);
        Checks.item checks
          (String.equal (Digest_acc.hex d) first && c.Checks.failed = 0)
          "a later pass gave different observables")
      (List.tl passes);
    let op_ms =
      List.concat_map (fun ((_, _, pts), _) -> List.map (fun t -> t *. 1000.) pts) passes
    in
    {
      checks;
      metrics = Common.closed_loop_metrics ~setup_s ~passes:(List.map snd passes) ~op_ms;
      notes =
        [ plan_note;
          ( "parts_median_s thm26,separations,census",
            String.concat ","
              (List.map
                 (fun i ->
                   Printf.sprintf "%.3f"
                     (median (List.map (fun ((_, ts, _), _) -> List.nth ts i) passes)))
                 [ 0; 1; 2 ]) ) ];
      digest = first;
    }
  end
  else begin
    (* untraced passes on both sides of the traced one, for the
       tracing overhead *)
    let _, before = time (fun () -> one_pass pl programs pool) in
    Trace.enabled := true;
    let (r, _, _), traced_s = time (fun () -> one_pass pl programs pool) in
    Trace.enabled := false;
    let _, after = time (fun () -> one_pass pl programs pool) in
    let untraced = (before +. after) /. 2. in
    Trace.enabled := true;
    check_pass checks digest oracle pl r;
    (* the same points, layer by layer, serially *)
    List.iter
      (fun p ->
        let opts = M.Run_opts.make ~measure:all_models () in
        ignore
          (L.replay_point ~opts ~id:p.id ~source:p.source
             ~config:(M.Config.make ~variant:p.variant ()) p.n))
      (pl.seps @ pl.census);
    Trace.enabled := false;
    let extras = model_extras pl programs in
    {
      checks;
      metrics = Common.layer_metrics () @ extras;
      notes =
        [ plan_note;
          ("tracing_overhead_s", Printf.sprintf "%.6f" (traced_s -. untraced)) ];
      digest = Digest_acc.hex digest;
    }
  end
