(* Clocks, order statistics, seeded draws, observables digests, and the
   per-workload result record. *)

module Json = Tailspace_telemetry.Telemetry.Json

external now : unit -> float = "perfbench_monotonic"
external self_maxrss_kb : unit -> int = "perfbench_self_maxrss_kb"
external wait4 : int -> int * int = "perfbench_wait4"

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* An observables digest: every field a workload feeds it, in order. *)
module Digest_acc = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let add t fields =
    List.iter
      (fun f ->
        Buffer.add_string t f;
        Buffer.add_char t '\x1f')
      fields;
    Buffer.add_char t '\n'

  let hex t = Digest.to_hex (Digest.string (Buffer.contents t))
end

(* Output checks: each attempted point, run or request is one item;
   an item fails when any of its checks does. *)
module Checks = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable messages : string list;
  }

  let create () = { attempted = 0; failed = 0; messages = [] }

  let item t ok what =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      if List.length t.messages < 20 then t.messages <- what :: t.messages
    end

  let failed_share t =
    if t.attempted = 0 then 0.
    else float_of_int t.failed /. float_of_int t.attempted
end

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  checks : Checks.t;
  metrics : metric list;
  notes : (string * string) list;  (** printed next to the metrics *)
  digest : string;
}

let peak_rss_mb () = float_of_int (self_maxrss_kb ()) /. 1024.

(* Run [pass] until [seconds] of measuring are spent, at least [min]
   times; a pass starts only if the median pass so far still fits. *)
let repeat_for ~seconds ?(min = 3) pass =
  let t0 = now () in
  let rec go acc n =
    let elapsed = now () -. t0 in
    let est = if acc = [] then 0. else median (List.map snd acc) in
    if n >= min && elapsed +. est > seconds then List.rev acc
    else
      let r, dt = time pass in
      go ((r, dt) :: acc) (n + 1)
  in
  go [] 0

(* Set up [k] times and keep the last; returns it with the median time. *)
let repeat_setup ~k ~teardown setup =
  let rec go i times =
    let v, dt = time setup in
    if i >= k then (v, median (dt :: times))
    else begin
      teardown v;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []
