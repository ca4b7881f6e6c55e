(* Pieces every workload shares: set-up of the programs it runs, and the
   metric sets. *)

open Util
module L = Layers

let ints ns = String.concat "," (List.map string_of_int ns)

(* Front-end and prelude work a workload pays before its first timed
   operation: read and expand every program it runs, and build one
   machine per variant (which evaluates the Scheme prelude). *)
let prepare sources =
  let programs = List.map (fun src -> L.expand src) sources in
  List.iter
    (fun v -> ignore (L.M.create_with (L.M.Config.make ~variant:v ())))
    L.M.all_variants;
  programs

(* The end-to-end metric set for a closed-loop workload, where each
   operation is issued when the previous one finishes: its latency is
   its run time, and its rate is operations per busy second. *)
let closed_loop_metrics ~setup_s ~passes ~op_ms =
  let n = List.length op_ms in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (median passes);
    metric "run_p50_ms" "ms" (median op_ms);
    metric "run_p95_ms" "ms" (percentile 0.95 op_ms);
    metric "latency_p50_ms" "ms" (median op_ms);
    metric "latency_p99_ms" "ms" (percentile 0.99 op_ms);
    metric "max_rate_rps" "1/s" (float_of_int n /. (sum op_ms /. 1000.));
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* Per-layer metrics read off the spans and counts of a traced run. *)
let layer_metrics () =
  let s name = Trace.self_time name in
  let c name = Trace.get_count name in
  let exec = s "core.exec" in
  let gc_runs = c "core.gc_runs" in
  [
    metric "sexp.read_s" "s" (s "sexp.read");
    metric "expander.expand_s" "s" (s "expander.expand");
    metric "analysis.annotate_s" "s" (s "analysis.annotate");
    metric "analysis.nodes" "count" (c "analysis.nodes");
    metric "core.setup_s" "s" (s "core.setup");
    metric "core.exec_s" "s" exec;
    metric "core.steps" "count" (c "core.steps");
    metric "core.steps_per_s" "1/s"
      (if exec > 0. then c "core.steps" /. (exec +. s "vm.exec") else 0.);
    metric "core.gc_runs" "count" gc_runs;
    metric "core.gc_freed" "count" (c "core.gc_freed");
    metric "core.gc_freed_per_run" "count"
      (if gc_runs > 0. then c "core.gc_freed" /. gc_runs else 0.);
    metric "core.store_hwm" "cells" (c "core.store_hwm");
    metric "core.max_cont_depth" "frames" (c "core.max_cont_depth");
    metric "core.peak_words" "words" (c "core.peak_words");
    metric "core.census_s" "s" (s "core.census");
    metric "vm.exec_s" "s" (s "vm.exec");
    metric "vm.compile_s" "s" (s "vm.compile");
    metric "vm.run_fast_s" "s" (s "vm.run_fast");
    metric "telemetry.json_s" "s" (s "telemetry.json");
    metric "provenance.encode_s" "s" (s "provenance.encode");
  ]
