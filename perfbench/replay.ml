(* A serve request's work, replayed in process the way the server's
   worker does it: clamp the budget to the default policy, decode the
   program, run it with telemetry, decompose the census, encode the
   reply. *)

open Util
module L = Layers
module M = L.M
module R = L.R
module P = Tailspace_serve.Protocol
module Server = Tailspace_serve.Server
module Res = Tailspace_resilience.Resilience
module Census = Tailspace_core.Census
module Prov = Tailspace_provenance.Provenance
module Tel = L.Tel

let limit =
  let p = Server.default_policy in
  Res.Budget.make ~fuel:p.Server.max_fuel ~timeout_s:p.Server.max_timeout_s
    ~space_words:p.Server.max_space_words ~output_bytes:p.Server.max_output_bytes ()

let parse ~id source = try Some (L.expand ~id source) with _ -> None

let encode ~id (m : R.measurement) =
  Option.iter
    (fun s ->
      ignore
        (Trace.span ~id "telemetry.json" (fun () ->
             Json.to_string (Tel.summary_to_json s))))
    m.R.summary;
  ignore
    (Trace.span ~id "serve.protocol" (fun () ->
         Json.to_string (R.measurement_to_json { m with R.summary = None })))

let work ?(collect_telemetry = true) ~id (req : P.request) =
  let budget = Res.Budget.clamp ~limit req.P.budget in
  let opts = M.Run_opts.make ~budget ~measure:req.P.measure () in
  let config = req.P.config in
  match req.P.work with
  | Some (P.Evaluate { program; n }) ->
      Option.iter
        (fun program ->
          encode ~id (R.run_once ~opts ~collect_telemetry ~config ~program ~n ()))
        (parse ~id program)
  | Some (P.Census { program; n }) ->
      Option.iter
        (fun program ->
          let census = Census.create () in
          let opts = { opts with M.Run_opts.provenance = Some census } in
          let m = R.run_once ~opts ~collect_telemetry ~config ~program ~n () in
          (match
             Trace.span ~id "core.census" (fun () ->
                 Census.flat_census census ~peak:(R.peak_space m))
           with
          | Some c ->
              ignore
                (Trace.span ~id "provenance.encode" (fun () ->
                     Json.to_string (Prov.to_json c)))
          | None -> ());
          encode ~id m)
        (parse ~id program)
  | Some (P.Sweep { program; ns }) ->
      Option.iter
        (fun program ->
          List.iter (encode ~id)
            (R.sweep ~opts ~collect_telemetry ~config ~program ~ns ()))
        (parse ~id program)
  | None -> ()

(* What the per-run telemetry counters cost: the mix's evaluate
   requests run with and without them. *)
let counters_extra (mix : (string * P.request) list) =
  sum
    (List.map
       (fun (id, req) ->
         match req.P.work with
         | Some (P.Evaluate _) ->
             let with_ = snd (time (fun () -> work ~id req)) in
             let without = snd (time (fun () -> work ~collect_telemetry:false ~id req)) in
             with_ -. without
         | _ -> 0.)
       mix)
