(* Harness: growth fitting on synthetic data, table rendering, the
   runner, and smoke runs of the experiment drivers at reduced sizes. *)

module G = Tailspace_harness.Growth
module T = Tailspace_harness.Table
module R = Tailspace_harness.Runner
module X = Tailspace_harness.Experiments
module M = Tailspace_core.Machine
module E = Tailspace_expander.Expand

(* Experiment tables are pinned byte for byte: every observable (steps,
   peaks, fits, claims) feeds the rendering, so a change that moves any
   of them fails here. The goldens under golden/ were rendered at the
   reduced sizes these tests use. *)
let golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

let synth f ns = List.map (fun n -> (n, f n)) ns
let ns = [ 8; 16; 32; 64; 128; 256 ]

let check_order name f expected =
  Alcotest.(check string) name
    (G.order_name expected)
    (G.order_name (G.classify (synth f ns)))

let test_classify_constant () = check_order "constant" (fun _ -> 3000) G.Constant

let test_classify_log () =
  check_order "log" (fun n -> 500 + (40 * int_of_float (log (float_of_int n)))) G.Logarithmic

let test_classify_linear () = check_order "linear" (fun n -> 1000 + (17 * n)) G.Linear

let test_classify_linearithmic () =
  check_order "n log n"
    (fun n -> 200 + int_of_float (7.0 *. float_of_int n *. log (float_of_int n)))
    G.Linearithmic

let test_classify_quadratic () =
  check_order "quadratic" (fun n -> 100 + (3 * n * n)) G.Quadratic

let test_fit_params () =
  let f = G.fit (synth (fun n -> 50 + (7 * n)) ns) in
  Alcotest.(check bool) "slope near 7" true (abs_float (f.G.coefficient -. 7.) < 0.5);
  Alcotest.(check bool) "intercept near 50" true (abs_float (f.G.intercept -. 50.) < 20.)

let test_fit_prefers_simpler () =
  (* noiseless linear data also fits the quadratic model; the simpler
     order must win the tie *)
  let f = G.fit (synth (fun n -> 10 * n) ns) in
  Alcotest.(check string) "linear not quadratic" "O(N)" (G.order_name f.G.order)

let test_fit_requires_points () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Growth.fit: need at least 3 measurements") (fun () ->
      ignore (G.fit [ (1, 1); (2, 2) ]))

let test_at_least () =
  Alcotest.(check bool) "quad >= linear" true (G.at_least G.Quadratic G.Linear);
  Alcotest.(check bool) "log < linear" false (G.at_least G.Logarithmic G.Linear);
  Alcotest.(check bool) "reflexive" true (G.at_least G.Linear G.Linear)

let test_table_render () =
  let s = T.render ~header:[ "name"; "n" ] [ [ "alpha"; "12" ]; [ "b"; "3" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check string) "numbers right-aligned" "alpha  12" (List.nth lines 2);
  Alcotest.(check string) "short name padded" "b       3" (List.nth lines 3)

let test_runner_sweep () =
  let program = E.program_of_string "(define (f n) (* n n)) f" in
  let ms = R.sweep ~config:(M.Config.make ~variant:M.Tail ()) ~program ~ns:[ 2; 3; 4 ] () in
  Alcotest.(check int) "three runs" 3 (List.length ms);
  Alcotest.(check bool) "all answered" true (R.all_answered ms);
  let answers =
    List.map (fun m -> match m.R.status with R.Answer a -> a | _ -> "?") ms
  in
  Alcotest.(check (list string)) "squares" [ "4"; "9"; "16" ] answers;
  Alcotest.(check int) "spaces extracted" 3 (List.length (R.spaces ms))

let test_runner_stuck_excluded () =
  let program = E.program_of_string "(define (f n) (car n)) f" in
  let ms = R.sweep ~config:(M.Config.make ~variant:M.Tail ()) ~program ~ns:[ 1; 2 ] () in
  Alcotest.(check bool) "not all answered" false (R.all_answered ms);
  Alcotest.(check int) "spaces empty" 0 (List.length (R.spaces ms))

(* --- experiment drivers at reduced scale --- *)

let test_fig2_runs () =
  let rows = X.Fig2.run () in
  Alcotest.(check bool) "covers corpus" true
    (List.length rows = List.length Tailspace_corpus.Corpus.all);
  let total = X.Fig2.total rows in
  Alcotest.(check bool) "nonzero calls" true (total.X.Tail_calls.calls > 0);
  Alcotest.(check bool) "renders" true (String.length (X.Fig2.render rows) > 100)

let test_thm25_reduced () =
  let sweeps = X.Thm25.run ~ns:[ 10; 20; 40 ] () in
  Alcotest.(check int) "four separators" 4 (List.length sweeps);
  List.iter
    (fun s ->
      List.iter
        (fun (c : X.Thm25.cell) ->
          Alcotest.(check bool)
            (s.X.Thm25.separator ^ " " ^ M.variant_name c.X.Thm25.variant
           ^ " all ran")
            true
            (List.length c.X.Thm25.spaces = 3))
        s.X.Thm25.cells)
    sweeps;
  Alcotest.(check string) "golden table" (golden "thm25_reduced.txt")
    (X.Thm25.render sweeps)

let test_thm25_claims_full () =
  (* the paper's separations at full default sizes *)
  let sweeps = X.Thm25.run () in
  List.iter
    (fun (claim, ok) -> Alcotest.(check bool) claim true ok)
    (X.Thm25.claims sweeps)

let test_thm24_chain () =
  let rows = X.Thm24.run () in
  Alcotest.(check bool) "nonempty" true (List.length rows > 10);
  List.iter
    (fun (r : X.Thm24.row) ->
      Alcotest.(check bool) (r.X.Thm24.name ^ " chain") true r.X.Thm24.chain_ok)
    rows

let test_thm26_shape () =
  let result = X.Thm26.run ~ns:[ 6; 9; 14; 20 ] () in
  (* flat sfs must overtake linked tail as N grows *)
  let last = List.nth result.X.Thm26.rows 3 in
  let first = List.hd result.X.Thm26.rows in
  let ratio (r : X.Thm26.row) =
    float_of_int r.X.Thm26.s_sfs /. float_of_int r.X.Thm26.u_tail
  in
  Alcotest.(check bool) "S_sfs/U_tail grows" true (ratio last > ratio first);
  Alcotest.(check string) "golden table" (golden "thm26_shape.txt")
    (X.Thm26.render result)

let test_cor20_agreement () =
  let rows = X.Cor20.run () in
  List.iter
    (fun (r : X.Cor20.row) ->
      Alcotest.(check bool) (r.X.Cor20.name ^ " agrees") true r.X.Cor20.agree)
    rows

let test_cps_shapes () =
  let r = X.Cps.run ~ns:[ 16; 32; 64; 128 ] () in
  let order = function
    | Some (f : G.fit) -> f.G.order
    | None -> Alcotest.fail "CPS sweep starved: no fit"
  in
  Alcotest.(check string) "tail bounded" "O(1)"
    (G.order_name (order r.X.Cps.tail_fit));
  Alcotest.(check bool) "gc at least linear" true
    (G.at_least (order r.X.Cps.gc_fit) G.Linear)

let test_ablation_choices_matter () =
  (* E8: the faithful readings separate; the literal readings do not *)
  let r = X.Ablation.run () in
  Alcotest.(check bool) "stack/gc separates (faithful)" true
    (r.X.Ablation.stack_gc_divergence_faithful >= 1.4);
  Alcotest.(check bool) "stack/gc collapses (literal)" true
    (r.X.Ablation.stack_gc_divergence_literal <= 1.1);
  Alcotest.(check bool) "tail/evlis separates (faithful)" true
    (r.X.Ablation.tail_evlis_divergence_faithful >= 1.4);
  Alcotest.(check bool) "tail/evlis collapses (literal)" true
    (r.X.Ablation.tail_evlis_divergence_literal <= 1.1)

let test_sec4_shapes () =
  let rows = X.Sec4.run ~ns:[ 16; 32; 64 ] () in
  let find spine variant =
    List.find
      (fun (r : X.Sec4.row) -> r.X.Sec4.spine = spine && r.X.Sec4.variant = variant)
      rows
  in
  let spread (r : X.Sec4.row) =
    let ds = List.map snd r.X.Sec4.deltas in
    List.fold_left Stdlib.max min_int ds - List.fold_left Stdlib.min max_int ds
  in
  (* right spine: traversal overhead flat under I_tail, growing under I_gc *)
  Alcotest.(check bool) "tail flat" true (spread (find "right" M.Tail) < 50);
  Alcotest.(check bool) "gc grows" true (spread (find "right" M.Gc) > 1000);
  (* left spine grows even under I_tail *)
  Alcotest.(check bool) "left tail grows" true (spread (find "left" M.Tail) > 500)

let () =
  Alcotest.run "harness"
    [
      ( "growth",
        [
          Alcotest.test_case "constant" `Quick test_classify_constant;
          Alcotest.test_case "logarithmic" `Quick test_classify_log;
          Alcotest.test_case "linear" `Quick test_classify_linear;
          Alcotest.test_case "linearithmic" `Quick test_classify_linearithmic;
          Alcotest.test_case "quadratic" `Quick test_classify_quadratic;
          Alcotest.test_case "fit parameters" `Quick test_fit_params;
          Alcotest.test_case "prefers simpler" `Quick test_fit_prefers_simpler;
          Alcotest.test_case "needs 3 points" `Quick test_fit_requires_points;
          Alcotest.test_case "at_least" `Quick test_at_least;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "sweep" `Quick test_runner_sweep;
          Alcotest.test_case "stuck excluded" `Quick test_runner_stuck_excluded;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig2" `Quick test_fig2_runs;
          Alcotest.test_case "thm25 reduced" `Quick test_thm25_reduced;
          Alcotest.test_case "thm25 claims (full size)" `Slow test_thm25_claims_full;
          Alcotest.test_case "thm24 chain" `Slow test_thm24_chain;
          Alcotest.test_case "thm26 shape" `Quick test_thm26_shape;
          Alcotest.test_case "cor20 agreement" `Slow test_cor20_agreement;
          Alcotest.test_case "cps shapes" `Quick test_cps_shapes;
          Alcotest.test_case "sec4 shapes" `Quick test_sec4_shapes;
          Alcotest.test_case "ablation (E8)" `Quick test_ablation_choices_matter;
        ] );
    ]
