(* Workload "serve-open": an in-process [Server] with one worker on a
   Unix socket, driven by one generator thread over one connection,
   with one thread reading the replies. A closed-loop pass first
   measures the single-request service time; then an open loop runs a
   small ladder of fixed arrival rates, multiples of that measured
   capacity, from light load to past one worker's saturation. Each
   request is timed from when it was due. *)

open Util
module L = Layers
module M = L.M
module SM = L.SM
module Server = Tailspace_serve.Server
module P = Tailspace_serve.Protocol
module Res = Tailspace_resilience.Resilience

(* The latency limit a rung's p99 must meet, and the rungs: multiples of
   the capacity the closed loop measured, each with its share of the
   open-loop time. The nominal rung gets the most, for its p99's sake;
   it is the light-load one, because at higher load a small change in
   the host's speed moves the queueing, and so the latency, by much
   more than it moves the service time. The closed loop's client round
   trip makes that capacity an underestimate, so the top rung is well
   past it. *)
let p99_limit_ms = 250.
let rungs = [ (0.25, 0.7); (0.5, 0.1); (0.75, 0.1); (2.5, 0.1) ]
let nominal = 0.25

type expect =
  | Answer of L.Corpus.entry * int
  | Sweep_answers of L.Corpus.entry * int list
  | Census_total of L.Corpus.entry * int
  | Typed of int * string * string option  (** status, outcome, abort tag *)

type req = { label : string; request : P.request; expect : expect }

(* Short corpus runs: ten entries whose smallest check input takes
   at most about 800 steps on I_tail. *)
let short_entries =
  List.filter_map L.Corpus.find
    [ "countdown"; "fib-iter"; "fact"; "sieve"; "hanoi"; "cps-loop";
      "callcc-generator"; "string-words"; "queue"; "mutual-ack" ]

let small_n (e : L.Corpus.entry) =
  List.fold_left min max_int (List.map fst e.checks)

let mk ?(variant = M.Tail) ?(engine = M.Stepper) ?(stack_policy = M.Safe_deletion)
    ?(budget = Res.Budget.unlimited) work =
  {
    P.id = Json.Null;
    tenant = "bench";
    work = Some work;
    probe = None;
    config = M.Config.make ~variant ~engine ~stack_policy ();
    measure = [ SM.Flat ];
    budget;
  }

(* The paper's own poison programs, each with the typed outcome the
   server owes it. *)
let poisons =
  [
    ( "poison/fuel",
      mk ~budget:(Res.Budget.make ~fuel:5000 ())
        (P.Evaluate { program = "(define (spin n) (spin n)) spin"; n = 1 }),
      Typed (1, "aborted", Some "out-of-fuel") );
    ( "poison/dangling",
      mk ~variant:M.Stack ~stack_policy:M.Algol
        (P.Evaluate { program = "(define (make n) (lambda () n)) (lambda (n) ((make n)))"; n = 3 }),
      Typed (1, "stuck", None) );
    ( "poison/space",
      mk ~budget:(Res.Budget.make ~space_words:6000 ())
        (P.Evaluate
           { program = "(define (grow n) (if (= n 0) 0 (+ 1 (grow (- n 1))))) grow";
             n = 100000 }),
      Typed (1, "aborted", Some "space-budget") );
    ( "poison/parse",
      mk (P.Evaluate { program = "(define (f n) n"; n = 1 }),
      Typed (2, "error", None) );
  ]

(* Census and sweep requests run on these, the shortest entries. *)
let tiny_entries =
  List.filter_map L.Corpus.find
    [ "countdown"; "fact"; "cps-loop"; "mutual-ack"; "y-combinator" ]

(* The mix: 100 requests. 60 flat evaluates (each short entry under
   each of the six variants), 10 vm-fast evaluates (each short entry),
   10 censuses and 10 short sweeps (each tiny entry under I_tail and
   I_sfs), and 10 poison programs. Every seed sends the same multiset,
   so every seed costs the same; the seed draws the order, and the
   arrival times. *)
let mix ~seed =
  let rng = rng ~seed "serve-open" in
  let evaluate (e, variant) =
    let n = small_n e in
    { label = Printf.sprintf "evaluate/%s/%s/%d" e.L.Corpus.name (M.variant_name variant) n;
      request = mk ~variant (P.Evaluate { program = e.source; n });
      expect = Answer (e, n) }
  in
  let fast e =
    let n = small_n e in
    { label = Printf.sprintf "vm-fast/%s/%d" e.L.Corpus.name n;
      request = mk ~engine:M.Vm_fast (P.Evaluate { program = e.source; n });
      expect = Answer (e, n) }
  in
  let census (e, variant) =
    let n = small_n e in
    { label = Printf.sprintf "census/%s/%s/%d" e.L.Corpus.name (M.variant_name variant) n;
      request = mk ~variant (P.Census { program = e.source; n });
      expect = Census_total (e, n) }
  in
  let sweep (e, variant) =
    let ns = [ small_n e; small_n e + 1 ] in
    { label = Printf.sprintf "sweep/%s/%s" e.L.Corpus.name (M.variant_name variant);
      request = mk ~variant (P.Sweep { program = e.source; ns });
      expect = Sweep_answers (e, ns) }
  in
  let poison i =
    let label, request, expect = List.nth poisons (i mod List.length poisons) in
    { label; request; expect }
  in
  let cross es vs = List.concat_map (fun e -> List.map (fun v -> (e, v)) vs) es in
  let tiny_pairs = cross tiny_entries [ M.Tail; M.Sfs ] in
  shuffle rng
    (List.map evaluate (cross short_entries M.all_variants)
    @ List.map fast short_entries
    @ List.map census tiny_pairs
    @ List.map sweep tiny_pairs
    @ List.init 10 poison)

(* ---------------------------------------------------------------- *)
(* Client                                                             *)

type client = {
  fd : Unix.file_descr;
  mutable reader : Thread.t option;
  mutex : Mutex.t;
  replies : (int, float * Json.t) Hashtbl.t;  (** id -> receipt, reply *)
  mutable next_id : int;
}

let reader c fd () =
  let rec loop () =
    match P.read_frame fd with
    | Ok json ->
        let t = now () in
        (match Json.member "id" json with
        | Some (Json.Int id) ->
            Mutex.lock c.mutex;
            Hashtbl.replace c.replies id (t, json);
            Mutex.unlock c.mutex
        | _ -> ());
        loop ()
    | Error _ -> ()
  in
  try loop () with Unix.Unix_error _ -> ()

let connect ep =
  let c =
    { fd = P.connect ep; reader = None; mutex = Mutex.create ();
      replies = Hashtbl.create 4096; next_id = 0 }
  in
  c.reader <- Some (Thread.create (reader c c.fd) ());
  c

let close_client c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Option.iter Thread.join c.reader;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c (r : P.request) =
  let id = c.next_id in
  c.next_id <- id + 1;
  let json =
    Trace.span "serve.protocol" (fun () -> P.request_to_json { r with P.id = Json.Int id })
  in
  P.write_frame c.fd json;
  id

let reply c id =
  Mutex.lock c.mutex;
  let r = Hashtbl.find_opt c.replies id in
  Mutex.unlock c.mutex;
  r

(* Wait until every id in [ids] has a reply or [deadline] passes. *)
let await_all c ids deadline =
  let rec go () =
    if List.for_all (fun id -> reply c id <> None) ids || now () > deadline then ()
    else begin
      Thread.delay 0.0005;
      go ()
    end
  in
  go ()

(* ---------------------------------------------------------------- *)
(* Checks                                                             *)

let int_member name json =
  match Json.member name json with Some (Json.Int i) -> i | _ -> -1

(* Whether a reply is the right one; and its observables for the
   digest: answer, steps, per-model peaks. *)
let judge oracle (q : req) json =
  match P.reply_of_json json with
  | Error _ -> (false, [ "unparsable" ])
  | Ok r ->
      let answer = Option.value ~default:"" r.P.r_answer in
      let peaks =
        match Json.member "peaks" json with Some p -> Json.to_string p | None -> ""
      in
      let obs = [ r.P.r_outcome; answer; string_of_int (int_member "steps" json); peaks ] in
      let ok =
        match q.expect with
        | Answer (e, n) -> r.P.r_status = 0 && L.answer_ok oracle e n answer
        | Census_total (e, n) ->
            r.P.r_status = 0 && L.answer_ok oracle e n answer
            && (match Json.member "census" json with
               | Some c ->
                   let rows =
                     match Json.member "rows" c with Some (Json.List l) -> l | _ -> []
                   in
                   List.fold_left (fun acc row -> acc + int_member "words" row) 0 rows
                   = int_member "peak_space" json
               | None -> false)
        | Sweep_answers (e, ns) -> (
            r.P.r_status = 0
            &&
            match Json.member "points" json with
            | Some (Json.List pts) ->
                List.length pts = List.length ns
                && List.for_all2
                     (fun n p ->
                       match Json.member "answer" p with
                       | Some (Json.Str a) -> L.answer_ok oracle e n a
                       | _ -> false)
                     ns pts
            | _ -> false)
        | Typed (status, outcome, tag) ->
            r.P.r_status = status && r.P.r_outcome = outcome
            && (tag = None || r.P.r_abort_tag = tag)
      in
      (ok, obs)

(* ---------------------------------------------------------------- *)
(* Server lifecycle                                                   *)

type server = { srv : Server.t; thread : Thread.t }

let start_server ~out =
  let path = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let config =
    { Server.default_config with
      jobs = 1; queue_capacity = 100_000; tenant_rate = 1e9; tenant_burst = 1e9;
      drain_timeout_s = 20. }
  in
  let srv = Server.create ~config (P.Unix_domain path) in
  let thread = Thread.create (fun () -> ignore (Server.run srv)) () in
  { srv; thread }

let stop_server s =
  Server.shutdown s.srv;
  Thread.join s.thread

let probe c op =
  let id = c.next_id in
  c.next_id <- id + 1;
  P.write_frame c.fd (Json.Obj [ ("op", Json.Str op); ("id", Json.Int id) ]);
  id

(* Set-up: draw the mix, prepare its programs, start the server,
   connect, and wait for one health probe's answer. *)
let setup ~seed ~out () =
  let m = mix ~seed in
  ignore
    (Common.prepare
       (List.map (fun (e : L.Corpus.entry) -> e.source) (short_entries @ tiny_entries)));
  let s = start_server ~out in
  let c = connect (Server.endpoint s.srv) in
  let id = probe c "health" in
  await_all c [ id ] (now () +. 10.);
  (m, s, c)

(* ---------------------------------------------------------------- *)
(* Loops                                                              *)

(* Closed loop: each request sent when the previous reply is in. *)
let closed_pass c m =
  List.map
    (fun q ->
      let t0 = now () in
      let id = send c q.request in
      await_all c [ id ] (t0 +. 30.);
      (id, now () -. t0))
    m

type rung = {
  rate : float;
  ids : (int * int * float) list;  (** id, mix index, due *)
  lags : float list;  (** how late each send ran, seconds *)
  stats : int list;  (** stats-probe ids *)
  finished : float;  (** when the schedule ended *)
}

(* Open loop at [rate] for [duration] seconds, each request sent when
   due regardless of replies. Gaps are drawn uniformly from 0.5 to 1.5
   times the mean gap: seeded, but less bursty than Poisson, so that a
   p99 over a few hundred requests repeats. Each cycle through the mix
   draws a new order, so that the wait a request meets behind its
   predecessor is averaged over many orders, not fixed by one. *)
let open_rung ?(stats_every = 0.) c m rng ~rate ~duration =
  let mix = Array.of_list m in
  let size = Array.length mix in
  let order = ref [||] in
  let t0 = now () in
  let rec go due i ids lags stats next_stats =
    if due -. t0 >= duration then
      { rate; ids = List.rev ids; lags; stats; finished = now () }
    else begin
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      let sent = now () in
      if i mod size = 0 then order := Array.of_list (shuffle rng (List.init size Fun.id));
      let k = !order.(i mod size) in
      let id = send c mix.(k).request in
      let stats, next_stats =
        if stats_every > 0. && sent >= next_stats then
          (probe c "stats" :: stats, sent +. stats_every)
        else (stats, next_stats)
      in
      let gap = (0.5 +. Random.State.float rng 1.) /. rate in
      go (due +. gap) (i + 1) ((id, k, due) :: ids) ((sent -. due) :: lags) stats
        next_stats
    end
  in
  go t0 0 [] [] [] t0

let latencies_ms c r =
  List.map
    (fun (id, _, due) ->
      match reply c id with Some (t, _) -> (t -. due) *. 1000. | None -> infinity)
    r.ids

(* The latencies of a rung cut into whole mix cycles: each cycle sends
   every request of the mix once, so each carries the same requests. *)
let cycles ~size lat =
  let rec go acc cur n = function
    | [] -> List.rev acc
    | x :: rest ->
        if n + 1 = size then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 lat

(* [stat] of each whole cycle, median over the cycles. *)
let per_cycle ~size stat lat =
  match cycles ~size lat with [] -> stat lat | cs -> median (List.map stat cs)

let run ~seed ~seconds ~traced ~out =
  let checks = Checks.create () and digest = Digest_acc.create () in
  let oracle = L.oracle () in
  let (m, s, c), setup_s =
    repeat_setup ~k:9
      ~teardown:(fun (_, s, c) -> close_client c; stop_server s)
      (setup ~seed ~out)
  in
  Fun.protect ~finally:(fun () -> close_client c; stop_server s) @@ fun () ->
  (* closed loop: calibration, digest and the service-time metrics *)
  let cal_passes = 5 in
  let cal = List.init cal_passes (fun _ -> time (fun () -> closed_pass c m)) in
  let service_ms = List.concat_map (fun (r, _) -> List.map (fun (_, dt) -> dt *. 1000.) r) cal in
  let mu = 1000. /. (sum service_ms /. float_of_int (List.length service_ms)) in
  let first_obs = Hashtbl.create 128 in
  List.iteri
    (fun pass (r, _) ->
      List.iteri
        (fun k (id, _) ->
          let q = List.nth m k in
          match reply c id with
          | Some (_, json) ->
              let ok, obs = judge oracle q json in
              if pass = 0 then begin
                Hashtbl.replace first_obs k obs;
                Digest_acc.add digest (q.label :: obs)
              end;
              Checks.item checks (ok && Hashtbl.find first_obs k = obs) ("serve " ^ q.label)
          | None -> Checks.item checks false ("serve: no reply to " ^ q.label))
        r)
    cal;
  let check_rung r =
    List.iter
      (fun (id, k, _) ->
        let q = List.nth m k in
        match reply c id with
        | Some (_, json) ->
            let ok, obs = judge oracle q json in
            Checks.item checks (ok && Hashtbl.find first_obs k = obs) ("serve " ^ q.label)
        | None -> Checks.item checks false ("serve: no reply to " ^ q.label))
      r.ids
  in
  let rng = rng ~seed "serve-open arrivals" in
  let open_s = Float.max 4. (seconds -. sum (List.map snd cal)) in
  let run_rung ?stats_every ?(part = 1.) mult =
    let duration = Float.max 0.5 (open_s *. part *. List.assoc mult rungs) in
    let r = open_rung ?stats_every c m rng ~rate:(mult *. mu) ~duration in
    await_all c
      (List.map (fun (id, _, _) -> id) r.ids @ r.stats)
      (r.finished +. 30.);
    check_rung r;
    r
  in
  let rung_summary r =
    let lat = latencies_ms c r in
    let p99 = percentile 0.99 lat in
    let last_reply =
      List.fold_left
        (fun acc (id, _, _) ->
          match reply c id with Some (t, _) -> Float.max acc t | None -> infinity)
        0. r.ids
    in
    (* a backlog that grew: replies still arriving a limit after the
       schedule ended *)
    let backlog = last_reply > r.finished +. (p99_limit_ms /. 1000.) in
    (lat, p99, backlog)
  in
  let cal_note =
    ( "capacity",
      Printf.sprintf "mu=%.1f req/s from %d closed-loop requests; open loop %.1f s"
        mu (List.length service_ms) open_s )
  in
  if not traced then begin
    let results = List.map (fun (mult, _) -> (mult, run_rung mult)) rungs in
    let summaries = List.map (fun (mult, r) -> (mult, r, rung_summary r)) results in
    let max_rate =
      List.fold_left
        (fun acc (_, r, (_, p99, backlog)) ->
          if p99 <= p99_limit_ms && not backlog then Float.max acc r.rate else acc)
        0. summaries
    in
    let _, _, (nom_lat, _, _) =
      List.find (fun (mult, _, _) -> mult = nominal) summaries
    in
    let metrics =
      [
        metric "setup_s" "s" setup_s;
        metric "wall_s" "s" (median (List.map snd cal));
        metric "run_p50_ms" "ms" (median service_ms);
        metric "run_p95_ms" "ms" (percentile 0.95 service_ms);
        metric "latency_p50_ms" "ms" (per_cycle ~size:(List.length m) median nom_lat);
        metric "latency_p99_ms" "ms"
          (per_cycle ~size:(List.length m) (percentile 0.99) nom_lat);
        metric "max_rate_rps" "1/s" max_rate;
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
    in
    let notes =
      cal_note
      :: List.map
           (fun (mult, r, (lat, p99, backlog)) ->
             ( Printf.sprintf "rung x%.2f" mult,
               Printf.sprintf
                 "rate=%.1f/s requests=%d p50=%.3fms p99=%.3fms cycle_p50=%.3fms cycle_p99=%.3fms backlog=%b generator_lag_p99=%.3fms"
                 r.rate (List.length lat) (median lat) p99
                 (per_cycle ~size:(List.length m) median lat)
                 (per_cycle ~size:(List.length m) (percentile 0.99) lat) backlog
                 (1000. *. percentile 0.99 r.lags) ))
           summaries
    in
    { checks; metrics; notes; digest = Digest_acc.hex digest }
  end
  else begin
    (* two half-length nominal rungs, so a traced run lasts about as
       long as an untraced one *)
    let untraced = run_rung ~part:0.5 nominal in
    let untraced_lat, _, _ = rung_summary untraced in
    Trace.enabled := true;
    let r = run_rung ~stats_every:0.1 ~part:0.5 nominal in
    let lat, _, _ = rung_summary r in
    (* queue depth and rejections, from the stats probes *)
    let stats = List.filter_map (fun id -> Option.map snd (reply c id)) r.stats in
    let stat path json =
      List.fold_left
        (fun j k -> Option.bind j (Json.member k))
        (Json.member "stats" json) path
    in
    let depth_max =
      List.fold_left
        (fun acc j -> match stat [ "queue_depth" ] j with Some (Json.Int d) -> max acc d | _ -> acc)
        0 stats
    in
    let rejected =
      match List.rev stats with
      | j :: _ -> (
          match stat [ "counters" ] j with
          | Some (Json.Obj kvs) ->
              List.fold_left
                (fun acc (k, v) ->
                  match v with
                  | Json.Int n when String.length k > 9 && String.sub k 0 9 = "rejected." -> acc + n
                  | _ -> acc)
                0 kvs
          | _ -> 0)
      | [] -> 0
    in
    (* replay each request's work in process: decode as the server does,
       run it, encode the reply *)
    let replay_one (q : req) =
      let id = q.label in
      let decoded, proto =
        time (fun () ->
            Trace.span ~id "serve.protocol" (fun () ->
                let wire = Json.to_string (P.request_to_json q.request) in
                match Json.of_string wire with
                | Ok j -> P.request_of_json j
                | Error e -> Error e))
      in
      let req = match decoded with Ok r -> r | Error _ -> q.request in
      let exec =
        snd
          (time (fun () ->
               Trace.span ~id "serve.exec" (fun () -> Replay.work ~id req)))
      in
      (proto, exec)
    in
    let mix = Array.of_list m in
    let replays = Hashtbl.create 128 in
    Array.iteri (fun k q -> Hashtbl.replace replays k (replay_one q)) mix;
    (* the evaluate requests once more, layer by layer *)
    List.iter
      (fun q ->
        match q.request.P.work with
        | Some (P.Evaluate { program; n }) -> (
            let budget = Res.Budget.clamp ~limit:Replay.limit q.request.P.budget in
            let opts = M.Run_opts.make ~budget ~measure:q.request.P.measure () in
            try
              ignore
                (L.replay_point ~opts ~id:q.label ~source:program
                   ~config:q.request.P.config n)
            with _ -> ())
        | _ -> ())
      m;
    Trace.enabled := false;
    let counters_extra =
      Replay.counters_extra (List.map (fun q -> (q.label, q.request)) m)
    in
    let waits =
      List.map2
        (fun (_, k, _) l ->
          let proto, exec = Hashtbl.find replays k in
          l -. (1000. *. (proto +. exec)))
        r.ids lat
    in
    {
      checks;
      metrics =
        Common.layer_metrics ()
        @ [
            metric "serve.protocol_s" "s" (Trace.self_time "serve.protocol");
            metric "serve.exec_s" "s" (Trace.self_time "serve.exec");
            metric "serve.wait_ms" "ms" (median waits);
            metric "serve.queue_depth_max" "count" (float_of_int depth_max);
            metric "serve.rejected" "count" (float_of_int rejected);
            metric "serve.generator_lag_ms" "ms" (1000. *. percentile 0.99 r.lags);
            metric "telemetry.counters_extra_s" "s" counters_extra;
          ];
      notes =
        [ cal_note;
          ( "tracing_overhead_ms (traced minus untraced nominal-rate p50)",
            Printf.sprintf "%.6f" (median lat -. median untraced_lat) );
          ("generator_lag_p99_ms", Printf.sprintf "%.6f" (1000. *. percentile 0.99 r.lags)) ];
      digest = Digest_acc.hex digest;
    }
  end
