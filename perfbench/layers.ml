(* Calls into each layer's public functions, wrapped in spans, and the
   correctness oracles the workloads share. *)

module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model
module R = Tailspace_harness.Runner
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Reader = Tailspace_sexp.Reader
module Expand = Tailspace_expander.Expand
module Annot = Tailspace_analysis.Annot
module Ast = Tailspace_ast.Ast
module Denot = Tailspace_engines.Denotational
module Tel = Tailspace_telemetry.Telemetry
module Vm = Tailspace_vm.Vm

let span = Trace.span

(* read + expand, as [Expand.program_of_string] does, one span each *)
let expand ?id source =
  let data =
    span ?id "sexp.read" (fun () ->
        match Reader.parse_all source with
        | Ok d -> d
        | Error e -> failwith (Format.asprintf "%a" Reader.pp_error e))
  in
  span ?id "expander.expand" (fun () -> Expand.program data)

let annotate ?id program =
  span ?id "analysis.annotate" (fun () ->
      let a = Annot.create () in
      Annot.record a program;
      Trace.count "analysis.nodes" (float_of_int (Annot.nodes a));
      a)

let applied program n = Ast.Call (program, [ R.input_expr n ])

(* The denotational engine's answer to (program n), on one shared
   initial environment (the engine does not step it). *)
let denot_machine = lazy (M.create_with M.Config.default)

let denot_answer program n =
  match Denot.eval ~machine:(Lazy.force denot_machine) (applied program n) with
  | Denot.Done a -> Some a
  | Denot.Error _ | Denot.Aborted _ -> None

(* Answers must equal the denotational engine's and, where the input
   is one of the entry's hand-written checks, the check. *)
type oracle = (string * int, string option * string option) Hashtbl.t

let oracle () : oracle = Hashtbl.create 64

let expected (o : oracle) (e : Corpus.entry) n =
  match Hashtbl.find_opt o (e.Corpus.name, n) with
  | Some v -> v
  | None ->
      let v =
        (List.assoc_opt n e.Corpus.checks, denot_answer (Corpus.program e) n)
      in
      Hashtbl.replace o (e.Corpus.name, n) v;
      v

let answer_ok o e n answer =
  match expected o e n with
  | check, Some d ->
      String.equal answer d
      && (match check with Some c -> String.equal c answer | None -> true)
  | _, None -> false

let status_string = function
  | R.Answer a -> a
  | R.Stuck s -> "stuck: " ^ s
  | R.Aborted r -> "aborted: " ^ R.Resilience.abort_reason_name r

let peaks_string peaks =
  String.concat ","
    (List.map (fun (m, p) -> SM.name m ^ "=" ^ string_of_int p) peaks)

(* U <= S, and U <= Log <= 64 S, on Definition 23's consumptions. *)
let space_laws_ok (m : R.measurement) =
  let s = m.R.space in
  let le a b = match (a, b) with Some a, Some b -> a <= b | _ -> true in
  let u = R.consumption m SM.Linked and l = R.consumption m SM.Log in
  le u (Some s) && le u l && le l (Some (64 * s))

(* Fold a telemetry summary into the per-layer counts. *)
let note_summary (s : Tel.summary) =
  let c name v = Trace.count name (float_of_int v) in
  c "core.steps" s.Tel.steps;
  c "core.gc_runs" s.Tel.gc_runs;
  c "core.gc_freed" s.Tel.gc_freed;
  let hwm name v =
    if float_of_int v > Trace.get_count name then
      Trace.count name (float_of_int v -. Trace.get_count name)
  in
  hwm "core.store_hwm" s.Tel.store_hwm;
  hwm "core.max_cont_depth" s.Tel.max_cont_depth;
  hwm "core.peak_words" s.Tel.peak_space

(* One measured point, layer by layer: read, expand, annotate, build
   the machine (which evaluates the prelude), execute. Points whose
   config names a VM tier run there, as the harness does: the
   instrumented VM in one call, vm-fast as compile then run. Returns
   the point's (answer, steps, peaks) observables. *)
let replay_point ?(opts = M.Run_opts.default) ~id ~source ~config n =
  let program = expand ~id source in
  let annot = annotate ~id program in
  let telemetry = Tel.create () in
  let opts = { opts with M.Run_opts.telemetry = Some telemetry } in
  let input = R.input_expr n in
  let vm_answer (r : Vm.result) =
    match r.Vm.outcome with
    | Vm.Done a -> a
    | Vm.Stuck s -> "stuck: " ^ s
    | Vm.Aborted r -> "aborted: " ^ R.Resilience.abort_reason_name r
  in
  let answer, steps, peaks =
    match config.M.Config.engine with
    | M.Vm_fast ->
        let code =
          span ~id "vm.compile" (fun () -> Vm.compile ~annot (applied program n))
        in
        let r = span ~id "vm.run_fast" (fun () -> Vm.run_fast code) in
        (vm_answer r, r.Vm.steps, r.Vm.peaks)
    | M.Vm ->
        let r =
          span ~id "vm.exec" (fun () -> Vm.exec_program ~opts config ~program ~input)
        in
        (vm_answer r, r.Vm.steps, r.Vm.peaks)
    | M.Stepper ->
        let t = span ~id "core.setup" (fun () -> M.create_with config) in
        let r =
          span ~id "core.exec" (fun () -> M.exec_program ~opts t ~program ~input)
        in
        ( (match r.M.outcome with
          | M.Done { answer; _ } -> answer
          | M.Stuck s -> "stuck: " ^ s
          | M.Aborted { reason; _ } ->
              "aborted: " ^ R.Resilience.abort_reason_name reason),
          r.M.steps,
          r.M.peaks )
  in
  note_summary (Tel.summary telemetry);
  (answer, steps, peaks)
