(* Workload "cli-run": one [schemesim run --json] process per point,
   every option but the point's own at its default (today [--ring 16]
   with telemetry counters). Points are corpus entries at their check
   inputs, which stay small: growing-space points belong to
   "reproduce". Time goes to transitions, the stuck-state ring's
   per-step rendering, prelude set-up and process start. *)

open Util
module L = Layers
module M = L.M
module Tel = L.Tel
module Vm = L.Vm

type point = {
  id : string;
  entry : L.Corpus.entry;
  n : int;
  variant : M.variant;
  engine : M.engine;  (** [Stepper] or [Vm_fast] *)
}

(* Entries left out: the ones the corpus marks slow, and find-leftmost,
   a growing-space family that "reproduce" measures. *)
let entries =
  List.filter
    (fun (e : L.Corpus.entry) -> (not e.slow) && e.name <> "find-leftmost")
    L.Corpus.all

(* Every entry at every check input: on the stepper under I_tail (big
   environments) and I_sfs (small ones), and on vm-fast (which runs
   I_tail only). On I_gc and I_stack these programs' space grows with
   the recursion, and growing-space points are "reproduce"'s. The seed draws the order of
   the points; every seed runs the same set, since the slowest points
   cost fifty times the median and a draw of a subset would move the
   tail percentiles from seed to seed. *)
let variants = [ M.Tail; M.Sfs ]

let plan ~seed =
  let rng = rng ~seed "cli-run" in
  let points =
    List.concat_map
      (fun (e : L.Corpus.entry) ->
        List.concat_map
          (fun (n, _) ->
            List.map
              (fun (variant, engine) ->
                { id =
                    Printf.sprintf "%s/%d/%s/%s" e.name n (M.variant_name variant)
                      (M.engine_name engine);
                  entry = e; n; variant; engine })
              ((M.Tail, M.Vm_fast) :: List.map (fun v -> (v, M.Stepper)) variants))
          e.checks)
      entries
  in
  shuffle rng points

let argv schemesim p =
  [| schemesim; "run"; "-e"; p.entry.source; "--input"; string_of_int p.n;
     "--variant"; M.variant_name p.variant; "--engine"; M.engine_name p.engine;
     "--json" |]

(* Run one invocation; returns (exit code, stdout, peak RSS in KiB). *)
let invoke schemesim p =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process schemesim (argv schemesim p) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let code, rss = wait4 pid in
  (code, out, rss)

type outcome = { answer : string; steps : int; peaks : string; ok_exit : bool }

let parse (code, out, _) =
  let j = Result.to_option (Json.of_string (String.trim out)) in
  let field name = Option.bind j (Json.member name) in
  {
    answer = (match field "answer" with Some (Json.Str a) -> a | _ -> "<none>");
    steps = (match field "steps" with Some (Json.Int s) -> s | _ -> -1);
    peaks = (match field "peaks" with Some p -> Json.to_string p | None -> "");
    ok_exit = code = 0;
  }

(* The same point in process, layer by layer, with the telemetry
   instruments attributed differentially: exec with no telemetry, with
   counters only, and with the CLI's default 16-entry ring. Returns the
   time of the work the CLI itself does for the point (read, expand,
   annotate, set up, and run with the ring, or compile and run on
   vm-fast), the ring's extra and the counters' extra. *)
let replay p =
  let id = p.id in
  let (program, annot), front =
    time (fun () ->
        let program = L.expand ~id p.entry.source in
        (program, L.annotate ~id program))
  in
  match p.engine with
  | M.Vm_fast ->
      let (), run =
        time (fun () ->
            let code =
              Trace.span ~id "vm.compile" (fun () ->
                  Vm.compile ~annot (L.applied program p.n))
            in
            ignore (Trace.span ~id "vm.run_fast" (fun () -> Vm.run_fast code)))
      in
      (front +. run, 0., 0.)
  | M.Stepper | M.Vm ->
      let config = M.Config.make ~variant:p.variant () in
      let input = L.R.input_expr p.n in
      let exec ?telemetry () =
        let t = M.create_with config in
        let opts = M.Run_opts.make ?telemetry () in
        snd (time (fun () -> M.exec_program ~opts t ~program ~input))
      in
      let t, setup =
        time (fun () -> Trace.span ~id "core.setup" (fun () -> M.create_with config))
      in
      ignore (Trace.span ~id "core.exec" (fun () -> M.exec_program t ~program ~input));
      let none = exec () in
      let counters = exec ~telemetry:(Tel.create ()) () in
      let ring_tel = Tel.create ~ring:16 () in
      let ring = exec ~telemetry:ring_tel () in
      let (), json =
        time (fun () ->
            ignore
              (Trace.span ~id "telemetry.json" (fun () ->
                   Json.to_string (Tel.summary_to_json (Tel.summary ring_tel)))))
      in
      L.note_summary (Tel.summary ring_tel);
      (front +. setup +. ring +. json, ring -. counters, counters -. none)

let run ~seed ~seconds ~traced ~schemesim =
  if not (Sys.file_exists schemesim) then
    failwith ("cli-run: no schemesim executable at " ^ schemesim);
  let checks = Checks.create () and digest = Digest_acc.create () in
  let oracle = L.oracle () in
  let points, setup_s =
    repeat_setup ~k:15 ~teardown:ignore (fun () ->
        let points = plan ~seed in
        ignore
          (Common.prepare
             (List.map (fun (e : L.Corpus.entry) -> e.source) entries));
        points)
  in
  let max_rss = ref 0 in
  let pass () =
    List.map
      (fun p ->
        let ((_, _, rss) as r), dt = time (fun () -> invoke schemesim p) in
        max_rss := max !max_rss rss;
        (parse r, dt))
      points
  in
  let check_pass checks digest results =
    List.iter2
      (fun p (o, _) ->
        Checks.item checks
          (o.ok_exit && L.answer_ok oracle p.entry p.n o.answer)
          ("cli-run " ^ p.id ^ " answered " ^ o.answer);
        Digest_acc.add digest [ p.id; o.answer; string_of_int o.steps; o.peaks ])
      points results
  in
  let plan_note = ("plan", Printf.sprintf "%d invocations per pass" (List.length points)) in
  if not traced then begin
    let passes = repeat_for ~seconds pass in
    check_pass checks digest (fst (List.hd passes));
    let first = Digest_acc.hex digest in
    List.iter
      (fun (r, _) ->
        let d = Digest_acc.create () and c = Checks.create () in
        check_pass c d r;
        Checks.item checks
          (String.equal (Digest_acc.hex d) first && c.Checks.failed = 0)
          "a later pass gave different observables")
      (List.tl passes);
    let op_ms = List.concat_map (fun (r, _) -> List.map (fun (_, dt) -> dt *. 1000.) r) passes in
    let metrics =
      List.map
        (fun m ->
          if m.name = "peak_rss_mb" then
            metric "peak_rss_mb" "MB" (float_of_int !max_rss /. 1024.)
          else m)
        (Common.closed_loop_metrics ~setup_s ~passes:(List.map snd passes) ~op_ms)
    in
    let slowest =
      List.combine points (fst (List.hd passes))
      |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
      |> List.filteri (fun i _ -> i < 5)
      |> List.map (fun (p, (_, dt)) -> Printf.sprintf "%s=%.1fms" p.id (dt *. 1000.))
    in
    { checks; metrics;
      notes =
        [ plan_note; ("samples", string_of_int (List.length op_ms));
          ("slowest", String.concat " " slowest) ];
      digest = first }
  end
  else begin
    let results = pass () in
    check_pass checks digest results;
    (* untraced replays on both sides of the traced one, for the
       tracing overhead *)
    let _, before = time (fun () -> List.map replay points) in
    Trace.enabled := true;
    let replays, traced_s = time (fun () -> List.map replay points) in
    Trace.enabled := false;
    let _, after = time (fun () -> List.map replay points) in
    let invocations = sum (List.map snd results) in
    let in_process = sum (List.map (fun (t, _, _) -> t) replays) in
    {
      checks;
      metrics =
        Common.layer_metrics ()
        @ [
            metric "telemetry.ring_extra_s" "s"
              (sum (List.map (fun (_, r, _) -> r) replays));
            metric "telemetry.counters_extra_s" "s"
              (sum (List.map (fun (_, _, c) -> c) replays));
          ];
      notes =
        [ plan_note;
          ("process_and_cli_s (invocations minus the same work in process)",
           Printf.sprintf "%.6f" (invocations -. in_process));
          ("tracing_overhead_s (traced minus mean untraced in-process replay)",
           Printf.sprintf "%.6f" (traced_s -. ((before +. after) /. 2.))) ];
      digest = Digest_acc.hex digest;
    }
  end
