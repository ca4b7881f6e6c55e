(* The benchmark's entry point: one workload, one seed, one run.
   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    --schemesim PATH --out DIR
   The last line of standard output is the JSON result. *)

open Util

(* The metrics to report, with their units, as BENCHMARK.json at the
   root of the checkout declares them. *)
let declared key =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let field name m =
    match Json.member name m with Some (Json.Str s) -> s | _ -> failwith name
  in
  match Result.map (Json.member key) (Json.of_string text) with
  | Ok (Some (Json.List ms)) -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | _ -> failwith ("bench: BENCHMARK.json has no list " ^ key)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and traced = ref 0 and schemesim = ref "" and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int traced, "0|1");
      ("--schemesim", Arg.Set_string schemesim, "PATH");
      ("--out", Arg.Set_string out, "DIR");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !traced = 1 in
  let result =
    match !workload with
    | "reproduce" -> Reproduce.run ~seed ~seconds ~traced
    | "models" -> Models.run ~seed ~seconds ~traced
    | "cli-run" -> Cli_run.run ~seed ~seconds ~traced ~schemesim:!schemesim
    | "serve-open" -> Serve_open.run ~seed ~seconds ~traced ~out:!out
    | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
  in
  (* a traced run reports every per-layer metric, 0 for a layer its
     workload does not exercise *)
  let wanted = declared (if traced then "per_layer" else "end_to_end") in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) result.metrics with
        | Some m -> m
        | None when traced -> metric name unit_ 0.
        | None -> failwith ("bench: workload did not report " ^ name))
      wanted
  in
  (* JSON has no NaN or infinity; such a value only arises when a check
     already failed (no reply, no point), so report it as 0 *)
  let metrics =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          Printf.printf "note non-finite %s reported as 0\n" m.name;
          { m with value = 0. }
        end)
      metrics
  in
  if traced then begin
    Trace.write_out
      (Filename.concat !out
         (Printf.sprintf "trace-%s-%d.jsonl" !workload seed));
    List.iter
      (fun (name, self, n) ->
        Printf.printf "span %-28s self %10.6f s  count %d\n" name self n)
      (Trace.self_times ())
  end;
  let c = result.checks in
  List.iter (fun (k, v) -> Printf.printf "note %s %s\n" k v) result.notes;
  List.iter (fun m -> Printf.printf "metric %s %.6g %s\n" m.name m.value m.unit_) metrics;
  List.iter (fun m -> Printf.printf "check failed: %s\n" m) (List.rev c.Checks.messages);
  Printf.printf "failed_share %.6f (%d of %d)\n" (Checks.failed_share c)
    c.Checks.failed c.Checks.attempted;
  Printf.printf "digest %s %s\n" !workload result.digest;
  let ok = c.Checks.failed = 0 && c.Checks.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int (max 1 c.Checks.attempted));
            ("failed", Json.Int c.Checks.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ] ))
                   metrics) );
          ]));
  exit (if ok then 0 else 1)
