(* Workload "reproduce": the paper's flat-model experiments, run the way
   [schemesim report] runs them, through [Experiments.*.run ?pool ~ns]
   with the harness's default engine. *)

open Util
module L = Layers
module E = Tailspace_harness.Experiments
module Pool = Tailspace_parallel.Pool
module M = L.M

let jobs = 2

type ladders = {
  thm25 : int list;
  sec4 : int list;
  cps : int list;
  ablation : int list;
}

(* Seeded N ladders. The seed moves the lower rungs; the top rung, which
   costs most, is fixed, so every seed costs about the same. Theorem
   25's ladder spans 8..124 so that its divergence claims hold. *)
let ladders ~seed =
  let rng = rng ~seed "reproduce" in
  let near base spread = base + Random.State.int rng (spread + 1) in
  {
    thm25 = [ near 8 2; near 40 4; 124 ];
    sec4 = [ near 6 1; near 12 1; 24 ];
    cps = [ near 16 2; near 32 4; near 64 4; 128 ];
    ablation = [ near 20 2; near 40 4; 80 ];
  }

let experiments l pool =
  [
    ("thm25", fun () -> `Thm25 (E.Thm25.run ?pool ~ns:l.thm25 ()));
    ("thm24", fun () -> `Thm24 (E.Thm24.run ?pool ()));
    ("cor20", fun () -> `Cor20 (E.Cor20.run ?pool ()));
    ("sec4", fun () -> `Sec4 (E.Sec4.run ?pool ~ns:l.sec4 ()));
    ("cps", fun () -> `Cps (E.Cps.run ?pool ~ns:l.cps ()));
    ("ablation", fun () -> `Ablation (E.Ablation.run ?pool ~ns:l.ablation ()));
  ]

let render = function
  | `Thm25 r -> E.Thm25.render r
  | `Thm24 r -> E.Thm24.render r
  | `Cor20 r -> E.Cor20.render r
  | `Sec4 r -> E.Sec4.render r
  | `Cps r -> E.Cps.render r
  | `Ablation r -> E.Ablation.render r

(* Checks and digest over one pass's structured results. *)
let check_pass checks digest oracle l results =
  let answered what ns spaces =
    Checks.item checks
      (List.length spaces = List.length ns)
      (what ^ ": a point did not answer")
  in
  List.iter
    (function
      | `Thm25 sweeps ->
          List.iter
            (fun (claim, ok) -> Checks.item checks ok ("thm25 claim: " ^ claim))
            (E.Thm25.claims sweeps);
          List.iter
            (fun (s : E.Thm25.sweep) ->
              List.iter
                (fun (c : E.Thm25.cell) ->
                  let what = s.separator ^ "/" ^ M.variant_name c.variant in
                  answered ("thm25 " ^ what) l.thm25 c.spaces;
                  List.iter
                    (fun (n, sp) ->
                      Digest_acc.add digest
                        [ "thm25"; what; string_of_int n; string_of_int sp ])
                    c.spaces)
                s.cells)
            sweeps
      | `Thm24 rows ->
          List.iter
            (fun (r : E.Thm24.row) ->
              Checks.item checks r.chain_ok ("thm24 chain: " ^ r.name);
              List.iter
                (fun (v, sp) ->
                  Digest_acc.add digest
                    [ "thm24"; r.name; string_of_int r.n; M.variant_name v;
                      string_of_int sp ])
                r.s)
            rows
      | `Cor20 rows ->
          List.iter
            (fun (r : E.Cor20.row) ->
              let entry = Option.get (L.Corpus.find r.name) in
              let answers_ok =
                List.for_all (fun (_, a) -> L.answer_ok oracle entry r.n a) r.answers
              in
              Checks.item checks (r.agree && answers_ok) ("cor20: " ^ r.name);
              List.iter
                (fun (v, a) ->
                  Digest_acc.add digest
                    [ "cor20"; r.name; string_of_int r.n; M.variant_name v; a ])
                r.answers)
            rows
      | `Sec4 rows ->
          List.iter
            (fun (r : E.Sec4.row) ->
              let what = r.spine ^ "/" ^ M.variant_name r.variant in
              answered ("sec4 " ^ what) l.sec4 r.deltas;
              List.iter
                (fun (n, d) ->
                  Digest_acc.add digest
                    [ "sec4"; what; string_of_int n; string_of_int d ])
                r.deltas)
            rows
      | `Cps (r : E.Cps.result) ->
          answered "cps tail" l.cps r.tail;
          answered "cps gc" l.cps r.gc;
          List.iter
            (fun (tag, pts) ->
              List.iter
                (fun (n, s) ->
                  Digest_acc.add digest [ "cps"; tag; string_of_int n; string_of_int s ])
                pts)
            [ ("tail", r.tail); ("gc", r.gc) ]
      | `Ablation (r : E.Ablation.result) ->
          List.iter
            (fun (s : E.Ablation.sweep) ->
              answered ("ablation " ^ s.label) l.ablation s.spaces;
              List.iter
                (fun (n, sp) ->
                  Digest_acc.add digest
                    [ "ablation"; s.label; string_of_int n; string_of_int sp ])
                s.spaces)
            (r.return_env_rows @ r.evlis_rows))
    results

(* Set-up: draw the ladders, prepare the programs the experiments run
   (the separators and the corpus), start the worker pool. *)
let setup ~seed () =
  let l = ladders ~seed in
  ignore
    (Common.prepare
       (List.map snd L.Families.separators
       @ List.map (fun (e : L.Corpus.entry) -> e.source) L.Corpus.all));
  (l, Pool.create ~jobs ())

let one_pass l pool =
  List.map
    (fun (name, f) ->
      let r, dt = time (fun () -> Trace.span name f) in
      ((name, r), dt))
    (experiments l (Some pool))

(* The points [Experiments] measures inside one pass, for the traced
   replay: Theorem 25 first, then find-leftmost and Corollary 20, with
   the run options the experiments use and the harness's default
   engine (the instrumented VM on Tail points). *)
let replay_points l =
  let point opts tag source n v =
    let engine = if v = M.Tail then M.Vm else M.Stepper in
    ( Printf.sprintf "%s/%s/%d" tag (M.variant_name v) n,
      source,
      M.Config.make ~engine ~variant:v (),
      opts,
      n )
  in
  let sweep ?(opts = M.Run_opts.default) tag source ns =
    List.concat_map
      (fun n -> List.map (point opts tag source n) M.all_variants)
      ns
  in
  let approx = M.Run_opts.make ~gc_policy:`Approximate () in
  List.concat_map
    (fun (name, src) -> sweep ~opts:approx ("thm25/" ^ name) src l.thm25)
    L.Families.separators
  @ List.concat_map
      (fun (tag, src) -> sweep ("sec4/" ^ tag) src l.sec4)
      [
        ("right-traverse", L.Families.find_leftmost_right_traverse);
        ("right-build", L.Families.find_leftmost_right_build);
        ("left-traverse", L.Families.find_leftmost_left_traverse);
        ("left-build", L.Families.find_leftmost_left_build);
      ]
  @ List.concat_map
      (fun (e : L.Corpus.entry) ->
        match e.checks with
        | (n, _) :: _ when not e.slow -> sweep ("cor20/" ^ e.name) e.source [ n ]
        | _ -> [])
      L.Corpus.all

let run ~seed ~seconds ~traced =
  let checks = Checks.create () and digest = Digest_acc.create () in
  let oracle = L.oracle () in
  let (l, pool), setup_s =
    repeat_setup ~k:15 ~teardown:(fun (_, p) -> Pool.shutdown p) (setup ~seed)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let metrics, notes =
    if not traced then begin
      let passes = repeat_for ~seconds (fun () -> one_pass l pool) in
      let ops = List.concat_map fst passes in
      let op_ms = List.map (fun (_, dt) -> dt *. 1000.) ops in
      let results_of (r, _) = List.map (fun ((_, x), _) -> x) r in
      check_pass checks digest oracle l (results_of (List.hd passes));
      (* every later pass must reproduce the first exactly *)
      let first = Digest_acc.hex digest in
      List.iter
        (fun p ->
          let d = Digest_acc.create () and c = Checks.create () in
          check_pass c d oracle l (results_of p);
          Checks.item checks
            (String.equal (Digest_acc.hex d) first && c.Checks.failed = 0)
            "a later pass gave different observables")
        (List.tl passes);
      ( Common.closed_loop_metrics ~setup_s ~passes:(List.map snd passes) ~op_ms,
        [ ("ladders",
           Printf.sprintf "thm25=%s sec4=%s cps=%s ablation=%s jobs=%d"
             (Common.ints l.thm25) (Common.ints l.sec4) (Common.ints l.cps)
             (Common.ints l.ablation) jobs) ] )
    end
    else begin
      (* untraced passes on both sides of the traced one, for the
         tracing overhead *)
      let _, before = time (fun () -> one_pass l pool) in
      Trace.enabled := true;
      let results, traced_s = time (fun () -> one_pass l pool) in
      Trace.enabled := false;
      let _, after = time (fun () -> one_pass l pool) in
      let untraced = (before +. after) /. 2. in
      Trace.enabled := true;
      let results = List.map (fun ((_, x), _) -> x) results in
      List.iter
        (fun r -> ignore (Trace.span "harness.render" (fun () -> render r)))
        results;
      check_pass checks digest oracle l results;
      (* replay the sweep points serially, layer by layer *)
      let points = replay_points l in
      let point_times =
        List.map
          (fun (id, source, config, opts, n) ->
            let (answer, steps, peaks), dt =
              time (fun () ->
                  Trace.span ~id "harness.point" (fun () ->
                      L.replay_point ~opts ~id ~source ~config n))
            in
            Digest_acc.add digest
              [ "replay"; id; answer; string_of_int steps; L.peaks_string peaks ];
            dt)
          points
      in
      Trace.enabled := false;
      let thm25_wall =
        match Trace.durations "thm25" with (_, d) :: _ -> d | [] -> nan
      in
      let thm25_points =
        List.filteri (fun i _ -> i < 4 * 6 * List.length l.thm25) point_times
      in
      ( Common.layer_metrics ()
        @ [
            metric "harness.fit_render_s" "s" (Trace.self_time "harness.render");
            metric "parallel.longest_point_s" "s" (List.fold_left max 0. point_times);
            metric "parallel.busy_share" "ratio"
              (sum thm25_points /. (float_of_int jobs *. thm25_wall));
          ],
        [ ("tracing_overhead_s", Printf.sprintf "%.6f" (traced_s -. untraced));
          ("untraced_pass_s (mean of two)", Printf.sprintf "%.6f" untraced);
          ("traced_pass_s", Printf.sprintf "%.6f" traced_s) ] )
    end
  in
  { checks; metrics; notes; digest = Digest_acc.hex digest }
