(* Request-scoped spans recorded from outside the program: the replays
   wrap each call into a layer's public function in [span], so the
   spans of one request share one recorder (its request id). Spans are
   kept in memory; a finished request is reduced to per-layer self
   times — a span's duration minus the part its children cover — and
   raw durations.

   A disabled recorder runs the same code path and records nothing:
   the untraced replay that the tracing overhead is measured against. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  enabled : bool;
  lock : Mutex.t;  (* pool workers record into the submitter's request *)
  mutable next : int;
  mutable spans : span list;
}

(* The parent of a request's root span. *)
let none = -1

let create ~enabled = { enabled; lock = Mutex.create (); next = 0; spans = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t ~id ~parent name start stop =
  locked t (fun () -> t.spans <- { id; parent; name; start; stop } :: t.spans)

let fresh t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [span t ~parent name f] runs [f id] inside a span; [id] is the
   parent to hand to nested spans. *)
let span t ~parent name f =
  if not t.enabled then f parent
  else begin
    let id = fresh t in
    let start = Util.now () in
    Fun.protect ~finally:(fun () -> add t ~id ~parent name start (Util.now ()))
      (fun () -> f id)
  end

(* A span whose bounds were taken elsewhere (the pool's queue wait is
   known only once the job starts on a worker). *)
let record t ~parent name start stop =
  if t.enabled then add t ~id:(fresh t) ~parent name start stop

type summary = {
  self : (string * float) list;  (* layer -> self seconds, summed *)
  dur : (string * float) list;  (* layer -> span seconds, summed *)
  total : float;  (* the root span's duration *)
}

let add_to name v assoc =
  match List.assoc_opt name assoc with
  | Some x -> (name, x +. v) :: List.remove_assoc name assoc
  | None -> (name, v) :: assoc

let summarize t =
  let spans = t.spans in
  let dur s = s.stop -. s.start in
  let children_time id =
    List.fold_left
      (fun acc s -> if s.parent = id then acc +. dur s else acc)
      0. spans
  in
  List.fold_left
    (fun acc s ->
      {
        self = add_to s.name (dur s -. children_time s.id) acc.self;
        dur = add_to s.name (dur s) acc.dur;
        total = (if s.parent = none then acc.total +. dur s else acc.total);
      })
    { self = []; dur = []; total = 0. }
    spans

let self_of name s = Option.value ~default:0. (List.assoc_opt name s.self)
let dur_of name s = Option.value ~default:0. (List.assoc_opt name s.dur)
