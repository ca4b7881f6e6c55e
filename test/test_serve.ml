(* The evaluation service: the framing layer against a hostile peer
   (truncated frames, oversized headers, garbage bytes, slow-loris),
   token buckets and fair admission on an explicit clock, the request
   codec, and an end-to-end daemon over a Unix socket surviving a
   poison mix. *)

module Json = Tailspace_telemetry.Telemetry.Json
module Res = Tailspace_resilience.Resilience
module Protocol = Tailspace_serve.Protocol
module Admission = Tailspace_serve.Admission
module Server = Tailspace_serve.Server

(* ------------------------------------------------------------------ *)
(* framing *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "short write in test rig" (String.length s) n

let header len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let test_frame_roundtrip () =
  with_pair @@ fun a b ->
  let json =
    Json.Obj
      [ ("op", Json.Str "evaluate"); ("n", Json.Int 42); ("x", Json.Null) ]
  in
  Protocol.write_frame a json;
  match Protocol.read_frame b with
  | Ok j -> Alcotest.(check string) "roundtrip" (Json.to_string json) (Json.to_string j)
  | Error e -> Alcotest.failf "read failed: %s" (Protocol.read_error_message e)

let test_frame_clean_close () =
  with_pair @@ fun a b ->
  Unix.close a;
  match Protocol.read_frame b with
  | Error Protocol.Closed -> ()
  | Ok _ -> Alcotest.fail "expected Closed"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

let test_frame_truncated () =
  with_pair @@ fun a b ->
  write_all a (header 100);
  write_all a "only ten b";
  Unix.close a;
  match Protocol.read_frame b with
  | Error Protocol.Truncated -> ()
  | Ok _ -> Alcotest.fail "expected Truncated"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

let test_frame_oversized () =
  with_pair @@ fun a b ->
  write_all a (header (100 * 1024 * 1024));
  (match Protocol.read_frame ~max_frame:(1 lsl 20) b with
  | Error (Protocol.Oversized n) ->
      Alcotest.(check int) "declared length" (100 * 1024 * 1024) n
  | Ok _ -> Alcotest.fail "expected Oversized"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e));
  (* a zero-length header is equally malformed *)
  with_pair @@ fun a b ->
  write_all a (header 0);
  match Protocol.read_frame b with
  | Error (Protocol.Oversized _) -> ()
  | Ok _ -> Alcotest.fail "expected Oversized on length 0"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

let test_frame_garbage_payload () =
  with_pair @@ fun a b ->
  write_all a (header 7);
  write_all a "\x00\xffgarb)";
  match Protocol.read_frame b with
  | Error (Protocol.Bad_json _) -> ()
  | Ok _ -> Alcotest.fail "expected Bad_json"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

let test_frame_slow_loris () =
  with_pair @@ fun a b ->
  (* a frame that starts but never finishes must time out on the
     frame clock, not hang *)
  write_all a (header 64);
  write_all a "{\"half\":";
  let t0 = Unix.gettimeofday () in
  match Protocol.read_frame ~frame_timeout_s:0.3 b with
  | Error Protocol.Timed_out ->
      Alcotest.(check bool)
        "gave up promptly" true
        (Unix.gettimeofday () -. t0 < 2.)
  | Ok _ -> Alcotest.fail "expected Timed_out"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

let test_frame_give_up () =
  with_pair @@ fun _a b ->
  (* an idle connection wakes up when the give-up predicate fires (the
     server's drain signal), without any bytes arriving *)
  let t0 = Unix.gettimeofday () in
  match
    Protocol.read_frame ~give_up:(fun () -> Unix.gettimeofday () -. t0 > 0.15) b
  with
  | Error Protocol.Idle_closed -> ()
  | Ok _ -> Alcotest.fail "expected Idle_closed"
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.read_error_message e)

(* random bytes at the framing layer: always a typed error or a valid
   frame, never an exception *)
let prop_frame_never_raises =
  QCheck.Test.make ~name:"read_frame total on garbage" ~count:60
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun junk ->
      with_pair (fun a b ->
          (try write_all a junk with _ -> ());
          Unix.close a;
          match Protocol.read_frame ~frame_timeout_s:0.2 b with
          | Ok _ | Error _ -> true))

(* ------------------------------------------------------------------ *)
(* admission on an explicit clock *)

let test_bucket () =
  let b = Admission.Bucket.create ~rate:1. ~burst:2. ~now:100. in
  Alcotest.(check bool) "take 1" true (Admission.Bucket.try_take b ~now:100. = Ok ());
  Alcotest.(check bool) "take 2" true (Admission.Bucket.try_take b ~now:100. = Ok ());
  (match Admission.Bucket.try_take b ~now:100. with
  | Error retry ->
      Alcotest.(check bool)
        (Printf.sprintf "retry hint %.2fs ~ 1s" retry)
        true
        (retry > 0.9 && retry <= 1.0)
  | Ok () -> Alcotest.fail "burst exhausted, take must fail");
  (* one fake second refills one token; no sleeping anywhere *)
  Alcotest.(check bool)
    "refilled after 1s" true
    (Admission.Bucket.try_take b ~now:101. = Ok ());
  (* non-positive rate disables the quota *)
  let free = Admission.Bucket.create ~rate:0. ~burst:0. ~now:0. in
  Alcotest.(check bool) "rate 0 never rejects" true
    (Admission.Bucket.try_take free ~now:0. = Ok ())

let test_admission_shed_and_fairness () =
  let q = Admission.create ~capacity:4 ~tenant_rate:0. () in
  let offer tenant item =
    Admission.offer q ~now:0. ~tenant item
  in
  Alcotest.(check bool) "a1" true (offer "a" "a1" = Ok ());
  Alcotest.(check bool) "a2" true (offer "a" "a2" = Ok ());
  Alcotest.(check bool) "a3" true (offer "a" "a3" = Ok ());
  Alcotest.(check bool) "b1" true (offer "b" "b1" = Ok ());
  (match offer "c" "c1" with
  | Error (Admission.Queue_full { depth; capacity; _ }) ->
      Alcotest.(check int) "depth" 4 depth;
      Alcotest.(check int) "capacity" 4 capacity
  | _ -> Alcotest.fail "expected Queue_full at capacity");
  Alcotest.(check int) "depth" 4 (Admission.depth q);
  (* round-robin: b's single request is served second, not behind all
     of a's backlog *)
  let order = List.init 4 (fun _ -> Option.get (Admission.take q)) in
  Alcotest.(check (list string)) "fair drain" [ "a1"; "b1"; "a2"; "a3" ] order;
  Admission.close q;
  Alcotest.(check bool) "take after close+drain" true (Admission.take q = None);
  match offer "a" "late" with
  | Error Admission.Closing -> ()
  | _ -> Alcotest.fail "offer after close must be Closing"

let test_admission_quota () =
  let q = Admission.create ~capacity:100 ~tenant_rate:1. ~tenant_burst:1. () in
  Alcotest.(check bool) "first admitted" true
    (Admission.offer q ~now:50. ~tenant:"t" 1 = Ok ());
  (match Admission.offer q ~now:50. ~tenant:"t" 2 with
  | Error (Admission.Over_quota { retry_after_s }) ->
      Alcotest.(check bool) "retry hint positive" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "expected Over_quota");
  (* other tenants are unaffected *)
  Alcotest.(check bool) "other tenant fine" true
    (Admission.offer q ~now:50. ~tenant:"u" 3 = Ok ());
  Alcotest.(check bool) "refilled on the fake clock" true
    (Admission.offer q ~now:51.5 ~tenant:"t" 4 = Ok ())

(* ------------------------------------------------------------------ *)
(* request codec *)

let test_request_codec () =
  let ok =
    Json.Obj
      [
        ("id", Json.Int 7);
        ("op", Json.Str "evaluate");
        ("tenant", Json.Str "alice");
        ("program", Json.Str "(define (f n) n) f");
        ("n", Json.Int 3);
        ("budget", Json.Obj [ ("fuel", Json.Int 100) ]);
      ]
  in
  (match Protocol.request_of_json ok with
  | Ok req ->
      Alcotest.(check string) "tenant" "alice" req.Protocol.tenant;
      (match req.Protocol.work with
      | Some (Protocol.Evaluate { n; _ }) -> Alcotest.(check int) "n" 3 n
      | _ -> Alcotest.fail "expected Evaluate work");
      Alcotest.(check (option int))
        "budget fuel" (Some 100) req.Protocol.budget.Res.Budget.fuel;
      (* the codec round-trips through its own inverse *)
      let again = Protocol.request_to_json req in
      (match Protocol.request_of_json again with
      | Ok req' -> Alcotest.(check string) "tenant roundtrip" "alice" req'.Protocol.tenant
      | Error m -> Alcotest.failf "re-parse failed: %s" m)
  | Error m -> Alcotest.failf "valid request rejected: %s" m);
  (match Protocol.request_of_json (Json.Obj [ ("op", Json.Str "explode") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  (* "vm" is not an engine name ([Machine.Vm] is a compile-time alias) *)
  (match
     Protocol.request_of_json
       (Json.Obj
          [
            ("op", Json.Str "evaluate");
            ("program", Json.Str "(define (f n) n) f");
            ("engine", Json.Str "vm");
          ])
   with
  | Error m ->
      Alcotest.(check string) "vm engine" "request: unknown engine \"vm\"" m
  | Ok _ -> Alcotest.fail "engine vm must be rejected");
  match
    Protocol.request_of_json
      (Json.Obj [ ("op", Json.Str "evaluate"); ("program", Json.Int 3) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-string program must be rejected"

(* ------------------------------------------------------------------ *)
(* the daemon, end to end *)

let tmp_socket () =
  let path = Filename.temp_file "tailspace-serve" ".sock" in
  Sys.remove path;
  path

let with_server ?config f =
  let ep = Protocol.Unix_domain (tmp_socket ()) in
  let server = Server.create ?config ep in
  let outcome = ref None in
  let thread = Thread.create (fun () -> outcome := Some (Server.run server)) () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () -> f server ep);
  !outcome

let rpc fd json =
  Protocol.write_frame fd json;
  match Protocol.read_frame fd with
  | Ok j -> (
      match Protocol.reply_of_json j with
      | Ok r -> r
      | Error m -> Alcotest.failf "malformed reply: %s" m)
  | Error e -> Alcotest.failf "no reply: %s" (Protocol.read_error_message e)

let eval_req ?(budget = []) ~id program n =
  Json.Obj
    [
      ("id", Json.Str id);
      ("op", Json.Str "evaluate");
      ("program", Json.Str program);
      ("n", Json.Int n);
      ("budget", Json.Obj budget);
    ]

let test_server_end_to_end () =
  let config = { Server.default_config with Server.jobs = 2 } in
  let outcome =
    with_server ~config @@ fun _server ep ->
    let fd = Protocol.connect ep in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    (* a healthy program *)
    let r =
      rpc fd
        (eval_req ~id:"ok" "(define (f n) (if (zero? n) 'done (f (- n 1)))) f"
           200)
    in
    Alcotest.(check int) "healthy status" 0 r.Protocol.r_status;
    Alcotest.(check (option string)) "answer" (Some "done") r.Protocol.r_answer;
    (* poison: a fuel burner comes back typed, on the same connection *)
    let r =
      rpc fd
        (eval_req ~id:"burn"
           ~budget:[ ("fuel", Json.Int 1000) ]
           "(define (spin n) (spin n)) spin" 0)
    in
    Alcotest.(check int) "poison status" 1 r.Protocol.r_status;
    Alcotest.(check (option string))
      "typed abort" (Some "out-of-fuel") r.Protocol.r_abort_tag;
    (* poison: a stuck program *)
    let r = rpc fd (eval_req ~id:"stuck" "(define (bad n) (car n)) bad" 5) in
    Alcotest.(check int) "stuck status" 1 r.Protocol.r_status;
    Alcotest.(check string) "stuck outcome" "stuck" r.Protocol.r_outcome;
    (* poison: an unparsable source is the client's fault *)
    let r = rpc fd (eval_req ~id:"garb" "((" 1) in
    Alcotest.(check int) "parse error status" 2 r.Protocol.r_status;
    (* the daemon is still alive and healthy after all of it *)
    let r =
      rpc fd (Json.Obj [ ("id", Json.Str "h"); ("op", Json.Str "health") ])
    in
    Alcotest.(check int) "health after poison" 0 r.Protocol.r_status;
    Alcotest.(check string) "health outcome" "ok" r.Protocol.r_outcome
  in
  Alcotest.(check bool) "drained cleanly" true (outcome = Some Server.Drained)

let test_server_protocol_error_then_close () =
  let outcome =
    with_server @@ fun _server ep ->
    let fd = Protocol.connect ep in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    (* garbage payload: the daemon answers a typed protocol error and
       closes; it does not crash *)
    write_all fd (header 5);
    write_all fd ")))))";
    (match Protocol.read_frame fd with
    | Ok j -> (
        match Protocol.reply_of_json j with
        | Ok r ->
            Alcotest.(check int) "protocol error status" 2 r.Protocol.r_status;
            Alcotest.(check string)
              "protocol error outcome" "protocol-error" r.Protocol.r_outcome
        | Error m -> Alcotest.failf "malformed protocol error: %s" m)
    | Error e ->
        Alcotest.failf "expected a protocol error response, got %s"
          (Protocol.read_error_message e));
    (* the daemon dropped this connection; a fresh one still works *)
    (match Protocol.read_frame ~frame_timeout_s:2. fd with
    | Error (Protocol.Closed | Protocol.Truncated) -> ()
    | Ok _ -> Alcotest.fail "connection should be closed after protocol error"
    | Error e -> Alcotest.failf "unexpected: %s" (Protocol.read_error_message e));
    let fd2 = Protocol.connect ep in
    Fun.protect ~finally:(fun () -> try Unix.close fd2 with _ -> ())
    @@ fun () ->
    let r =
      rpc fd2 (Json.Obj [ ("id", Json.Str "h"); ("op", Json.Str "health") ])
    in
    Alcotest.(check int) "fresh connection healthy" 0 r.Protocol.r_status
  in
  Alcotest.(check bool) "drained cleanly" true (outcome = Some Server.Drained)

let test_server_rejects_when_closing () =
  let outcome =
    with_server @@ fun server ep ->
    let fd = Protocol.connect ep in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    Server.shutdown server;
    (* a request racing the drain gets a structured rejection — or, if
       the reader already shut the connection, a clean close; never a
       raw crash or a hang *)
    match Protocol.write_frame fd (eval_req ~id:"late" "(define (f n) n) f" 1) with
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
    | () -> (
        match Protocol.read_frame ~frame_timeout_s:5. fd with
        | Error (Protocol.Closed | Protocol.Truncated | Protocol.Idle_closed)
          ->
            ()
        | Error e ->
            Alcotest.failf "unexpected read error: %s"
              (Protocol.read_error_message e)
        | Ok j -> (
            match Protocol.reply_of_json j with
            | Ok r ->
                Alcotest.(check int) "rejected status" 2 r.Protocol.r_status;
                Alcotest.(check string)
                  "rejected outcome" "rejected" r.Protocol.r_outcome
            | Error m -> Alcotest.failf "malformed rejection: %s" m))
  in
  Alcotest.(check bool) "drained cleanly" true (outcome = Some Server.Drained)

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "clean close" `Quick test_frame_clean_close;
          Alcotest.test_case "truncated" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "garbage payload" `Quick
            test_frame_garbage_payload;
          Alcotest.test_case "slow loris" `Quick test_frame_slow_loris;
          Alcotest.test_case "give up" `Quick test_frame_give_up;
          QCheck_alcotest.to_alcotest prop_frame_never_raises;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_bucket;
          Alcotest.test_case "shed + fair drain" `Quick
            test_admission_shed_and_fairness;
          Alcotest.test_case "per-tenant quota" `Quick test_admission_quota;
        ] );
      ( "codec", [ Alcotest.test_case "request" `Quick test_request_codec ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end with poison" `Quick
            test_server_end_to_end;
          Alcotest.test_case "protocol error then close" `Quick
            test_server_protocol_error_then_close;
          Alcotest.test_case "rejects while draining" `Quick
            test_server_rejects_when_closing;
        ] );
    ]
