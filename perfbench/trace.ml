(* Spans around calls into each layer's public functions, recorded from
   the benchmark's side of the boundary. Off by default: a disabled
   [span] is one branch around the call. Spans are kept in memory and
   written out when the run ends. *)

type span = {
  sid : int;
  parent : int;  (** [-1] at the root *)
  name : string;
  id : string;  (** point or request id *)
  start : float;
  stop : float;
}

let enabled = ref false
let mutex = Mutex.create ()
let spans : span list ref = ref []
let next_sid = ref 0
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

(* Open spans per thread, for parent links. *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let span ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let sid, parent =
      locked (fun () ->
          let sid = !next_sid in
          incr next_sid;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (sid :: stack);
          (sid, match stack with p :: _ -> p | [] -> -1))
    in
    let start = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Util.now () in
        locked (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            spans := { sid; parent; name; id; start; stop } :: !spans))
      f
  end

(* Counts recorded at the same boundaries as the spans. *)
let count name v =
  if !enabled then
    locked (fun () ->
        Hashtbl.replace counts name
          (v +. Option.value ~default:0. (Hashtbl.find_opt counts name)))

let get_count name = Option.value ~default:0. (Hashtbl.find_opt counts name)

(* Self time per span name: duration minus the part its children
   cover. Returns (name, self seconds, span count). *)
let self_times () =
  let all = !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sid)
      in
      let t, n =
        Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    all;
  Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) by_name []
  |> List.sort compare

let self_time name =
  match List.find_opt (fun (n, _, _) -> n = name) (self_times ()) with
  | Some (_, t, _) -> t
  | None -> 0.

(* Durations of every span of one name, in start order. *)
let durations name =
  List.filter (fun s -> s.name = name) !spans
  |> List.sort (fun a b -> compare a.start b.start)
  |> List.map (fun s -> (s.id, s.stop -. s.start))

let write_out path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"sid\":%d,\"parent\":%d,\"name\":%S,\"id\":%S,\"start\":%.9f,\"end\":%.9f}\n"
            s.sid s.parent s.name s.id s.start s.stop)
        (List.rev !spans))
