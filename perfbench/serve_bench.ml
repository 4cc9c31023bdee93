(* The two served workloads. A real [ldb serve] daemon runs as a child
   process; one benchmark process drives it over its socket with
   [clients] connections in a closed loop (each client blocks on its
   reply before sending the next request). The daemon only ever sees
   the generated .ldb files and request lines.

   serve-read  one resident database, query and boolean ops over a
               fixed set of texts, no mutations: plan-cache and memo
               hits, so wire, parse, pool and lookup costs show.
   serve-write a durable daemon (--data-dir, --sync batch); each client
               owns one database and alternates mutations with queries,
               so every query re-prepares after a delta and WAL appends
               sit on the mutation path.

   The traced run replays the same request stream in-process through
   the public functions [Serve.process] calls, in its order, with
   spans around each call ([Replay]). *)

module L = Logicaldb
module Json = L.Serve_json
module Protocol = L.Serve_protocol
module Client = L.Serve_client
module Session = L.Incr_session
module Store = L.Durable_store
module Cw = L.Cw_database
module Certain = L.Certain
module Resilient = L.Resilient
module Relation = L.Relation
module Workloads = Vardi_experiments.Workloads

type kind = Read | Write

(* Daemon flags, identical for every run and recorded in each result. *)
let workers = 2
let queue = 16
let clients = 2
let sync = L.Wal.Batch
let snapshot_every = 64

(* Set-ups per run; the median is reported as setup_s. *)
let setups = 5

(* 16 constants, 2 unknowns: 226 quotient structures per scan, well
   inside the session's 4096-structure cache. *)
let constants = 16
let unknowns = 2

type op =
  | Load of { db : string; path : string }
  | Ask of { db : string; text : string; boolean : bool }
  | Mutate of { db : string; m : Session.mutation }

let fact_text { Cw.pred; args } =
  Printf.sprintf "%s(%s)" pred (String.concat ", " args)

let wire op =
  let s x = Json.Str x in
  Json.to_string
    (Json.Obj
       (match op with
       | Load { db; path } -> [ ("op", s "load"); ("db", s db); ("path", s path) ]
       | Ask { db; text; boolean } ->
         [
           ("op", s (if boolean then "boolean" else "query"));
           ("db", s db);
           ("query", s text);
         ]
       | Mutate { db; m = Session.Insert f } ->
         [ ("op", s "insert"); ("db", s db); ("fact", s (fact_text f)) ]
       | Mutate { db; m = Session.Retract f } ->
         [ ("op", s "retract"); ("db", s db); ("fact", s (fact_text f)) ]
       | Mutate { db; m = Session.Close { left; right; equal } } ->
         [
           ("op", s "close_unknown");
           ("db", s db);
           ("left", s left);
           ("right", s right);
           ("to", s (if equal then "equal" else "distinct"));
         ]))

(* One client's request stream: [setup] runs once during set-up, then
   the timed loop repeats [cycle] from position 0. [states.(i)] is the
   database the op at cycle position [i] runs against. *)
type script = {
  setup : op array;
  cycle : op array;
  lines : string array;  (* wire form of [cycle] *)
  states : Cw.t array;
  files : (string * Cw.t) list;  (* .ldb files this client loads *)
}

let apply_cw db = function
  | Session.Insert f -> Cw.add_fact db f
  | Session.Retract f -> Cw.remove_fact db f
  | Session.Close { left; right; equal = false } -> Cw.add_distinct db left right
  | Session.Close { left; right; equal = true } ->
    Cw.merge_constants db ~keep:left ~drop:right

(* The database each op of [cycle] sees, starting from [initial]. *)
let states_of initial cycle =
  let db = ref initial in
  Array.map
    (fun op ->
      let before = !db in
      (match op with
      | Load _ -> db := initial
      | Mutate { m; _ } -> db := apply_cw before m
      | Ask _ -> ());
      match op with Load _ -> initial | _ -> before)
    cycle

let read_texts =
  [
    ("(x). exists y. R(x, y)", false);
    ("(x). P(x)", false);
    ("(x). exists y. R(x, y) /\\ P(y)", false);
    ("(x). (exists y. R(x, y)) /\\ ~P(x)", false);
    ("(x, y). R(x, y) /\\ x != y", false);
    ("(). exists x. ~P(x) /\\ exists y. R(x, y)", true);
    ("(). exists x. R(x, x)", true);
    ("(). forall x. exists y. R(x, y)", true);
  ]

(* Queries of serve-write read R only, so a P toggle is a delta they do
   not depend on and an R toggle is one they do. *)
let write_texts =
  [
    ("(x). exists y. R(x, y)", false);
    ("(x, y). R(x, y) /\\ x != y", false);
    ("(). exists x, y. R(x, y)", true);
    ("(x). exists y. R(y, x)", false);
  ]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let make_script ~setup ~cycle ~initial ~files =
  {
    setup;
    cycle;
    lines = Array.map wire cycle;
    states = states_of initial cycle;
    files;
  }

let read_scripts ~seed =
  let db = Workloads.parametric_db ~constants ~unknowns ~seed in
  let asks =
    Array.of_list
      (List.map (fun (text, boolean) -> Ask { db = "r"; text; boolean }) read_texts)
  in
  Array.init clients (fun c ->
      let rng = Random.State.make [| seed; c; 1 |] in
      (* Client 0 loads and warms every text once, sequentially, so the
         plan cache and memos are full before the clock starts. *)
      let setup =
        if c = 0 then Array.append [| Load { db = "r"; path = "r.ldb" } |] asks
        else [||]
      in
      make_script ~setup ~cycle:(shuffle rng asks) ~initial:db
        ~files:(if c = 0 then [ ("r.ldb", db) ] else []))

(* Each client owns one database name and reloads it from one of
   [variants] seeded files at the start of every 64-op sub-cycle, so a
   run averages over 2 x [variants] databases rather than resting on
   the scan costs of two.

   A sub-cycle: load (a fresh lineage, so closes do not accumulate),
   then 32 queries, each text asked twice in a row, with a mutation
   between each pair of queries. Between the two asks of every other
   text the mutation toggles a P fact the queries do not read (the
   second ask then hits the memos); elsewhere it toggles an R fact they
   do read. One mutation per sub-cycle is a close_unknown ... distinct.
   The texts' answers are non-empty and the sentence holds, so no scan
   exits early and a quarter of the queries are memo hits: the latency
   median stays inside the re-scan mode on every seed. Every mutation
   moves the delta epoch and no text repeats within an epoch, so every
   query misses the plan cache and the per-database counts are
   deterministic. *)
let variants = 4

let write_sub_cycle ~name ~path ~rng db =
  let k i = Printf.sprintf "k%d" i in
  let rec distinct_picks n pick acc =
    if List.length acc = n then acc
    else
      let x = pick () in
      distinct_picks n pick (if List.mem x acc then acc else x :: acc)
  in
  let r_facts =
    distinct_picks 3
      (fun () ->
        {
          Cw.pred = "R";
          args = [ k (Random.State.int rng constants); k (Random.State.int rng constants) ];
        })
      []
  in
  let p_facts =
    distinct_picks 2
      (fun () -> { Cw.pred = "P"; args = [ k (Random.State.int rng constants) ] })
      []
  in
  let present = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace present f true) (Cw.facts db);
  let toggle f =
    if Hashtbl.mem present f then (
      Hashtbl.remove present f;
      Session.Retract f)
    else (
      Hashtbl.replace present f true;
      Session.Insert f)
  in
  let close_at = 9 + (2 * Random.State.int rng 8) in
  let close_with = k (unknowns + Random.State.int rng (constants - unknowns)) in
  let mutation i =
    if i = close_at then Session.Close { left = k 0; right = close_with; equal = false }
    else
      let pool = if i mod 4 = 0 then p_facts else r_facts in
      toggle (List.nth pool (Random.State.int rng (List.length pool)))
  in
  let texts = Array.of_list write_texts in
  let ops = ref [ Load { db = name; path } ] in
  for i = 0 to 31 do
    let text, boolean = texts.(i / 2 mod Array.length texts) in
    ops := Ask { db = name; text; boolean } :: !ops;
    if i < 31 then ops := Mutate { db = name; m = mutation i } :: !ops
  done;
  let cycle = Array.of_list (List.rev !ops) in
  (cycle, states_of db cycle)

let write_scripts ~seed =
  Array.init clients (fun c ->
      let name = Printf.sprintf "w%d" c in
      let rng = Random.State.make [| seed; c; 2 |] in
      let subs =
        List.init variants (fun j ->
            let path = Printf.sprintf "%s_%d.ldb" name j in
            let db =
              Workloads.parametric_db ~constants ~unknowns
                ~seed:((((seed * 7) + c) * variants) + j)
            in
            let cycle, states = write_sub_cycle ~name ~path ~rng db in
            (path, db, cycle, states))
      in
      let cycle = Array.concat (List.map (fun (_, _, c, _) -> c) subs) in
      {
        (* set-up warms the daemon with the first sub-cycle *)
        setup = (match subs with (_, _, c, _) :: _ -> c | [] -> [||]);
        cycle;
        lines = Array.map wire cycle;
        states = Array.concat (List.map (fun (_, _, _, st) -> st) subs);
        files = List.map (fun (path, db, _, _) -> (path, db)) subs;
      })

let scripts kind ~seed =
  match kind with Read -> read_scripts ~seed | Write -> write_scripts ~seed

(* --- expected answers ---------------------------------------------- *)

type answer = Rows of string list list | Verdict of bool

(* The reference: the string-keyed kernel on the op's database state,
   a different kernel from the one the daemon serves with. *)
let reference db text boolean =
  let q = L.Parser.query text in
  if boolean then Verdict (Certain.certain_boolean ~kernel:Certain.Strings db q)
  else Rows (Util.sorted_rows (Relation.tuples (Certain.answer ~kernel:Certain.Strings db q)))

let expected table scripts c pos =
  match Hashtbl.find_opt table (c, pos) with
  | Some a -> a
  | None ->
    let s = scripts.(c) in
    let a =
      match s.cycle.(pos) with
      | Ask { text; boolean; _ } -> reference s.states.(pos) text boolean
      | Load _ | Mutate _ -> Verdict true
    in
    Hashtbl.replace table (c, pos) a;
    a

let rows_of resp =
  match Json.member "rows" resp with
  | Some (Json.List rows) ->
    Some
      (Util.sorted_rows
         (List.map
            (function
              | Json.List cells -> List.filter_map Json.to_str cells
              | _ -> [])
            rows))
  | _ -> None

(* Code ok, and for query ops the exact answer the reference gives. *)
let response_ok table scripts c pos resp =
  Json.str_field "code" resp = Some "ok"
  &&
  match scripts.(c).cycle.(pos) with
  | Load _ | Mutate _ -> true
  | Ask _ -> (
    Json.str_field "qualified" resp = Some "exact"
    &&
    match expected table scripts c pos with
    | Verdict v -> Json.bool_field "value" resp = Some v
    | Rows r -> rows_of resp = Some r)

(* --- the daemon ----------------------------------------------------- *)

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

type daemon = { pid : int; conns : Client.t array }

let daemon_args kind ~socket ~data_dir =
  [ "serve"; "--socket"; socket; "--workers"; string_of_int workers;
    "--queue"; string_of_int queue ]
  @
  match kind with
  | Read -> []
  | Write -> [ "--data-dir"; data_dir; "--sync"; L.Wal.sync_to_string sync ]

let flags kind =
  [
    ("workers", Json.Num (float_of_int workers));
    ("queue", Json.Num (float_of_int queue));
    ("clients", Json.Num (float_of_int clients));
    ( "sync",
      Json.Str (match kind with Read -> "none" | Write -> L.Wal.sync_to_string sync) );
    ("durable", Json.Bool (kind = Write));
  ]

let must_ok what resp =
  if Json.str_field "code" resp <> Some "ok" then
    failwith (Printf.sprintf "%s: %s" what (Json.to_string resp))

(* Spawn a daemon, connect, run every client's set-up ops (client by
   client, so the per-database history is deterministic). The socket
   name is fresh in a fresh run directory, never pre-created. *)
let start ~ldb kind scripts i =
  let socket = Printf.sprintf "s%d.sock" i in
  let data_dir = Printf.sprintf "data%d" i in
  let args = daemon_args kind ~socket ~data_dir in
  let log = Unix.openfile (Printf.sprintf "daemon%d.log" i)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process ldb (Array.of_list (ldb :: args)) Unix.stdin log log)
  in
  live := pid :: !live;
  let conns =
    Array.init clients (fun _ -> Client.connect_retry ~attempts:4000 ~delay:0.0025 socket)
  in
  Array.iteri
    (fun c s -> Array.iter (fun op -> must_ok "set-up" (Client.request_line conns.(c) (wire op))) s.setup)
    scripts;
  { pid; conns }

let stop d =
  let last = Array.length d.conns - 1 in
  Array.iteri (fun i c -> if i < last then Client.close c) d.conns;
  must_ok "shutdown" (Client.request d.conns.(last) (Json.Obj [ ("op", Json.Str "shutdown") ]));
  Client.close d.conns.(last);
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not exit cleanly");
  live := List.filter (( <> ) d.pid) !live

type sample = { pos : int; at : float; latency : float; resp : Json.t }

(* Closed loop: each client thread sends its next request only after
   the previous reply, until the deadline. *)
let timed_loop d scripts ~seconds =
  let results = Array.make clients [] in
  let start = Util.now () in
  let deadline = start +. seconds in
  let steal = Util.steal_sampler ~start ~seconds:(int_of_float seconds) in
  let finished = Array.make clients start in
  let errors = Array.make clients None in
  let client c () =
    let s = scripts.(c) in
    let n = Array.length s.cycle in
    let rec loop i acc =
      if Util.now () >= deadline then acc
      else begin
        let pos = i mod n in
        let t0 = Util.now () in
        let resp = Client.request_line d.conns.(c) s.lines.(pos) in
        let t1 = Util.now () in
        loop (i + 1) ({ pos; at = t1 -. start; latency = t1 -. t0; resp } :: acc)
      end
    in
    match loop 0 [] with
    | samples ->
      results.(c) <- List.rev samples;
      finished.(c) <- Util.now ()
    | exception e -> errors.(c) <- Some e
  in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  Array.iter (Option.iter raise) errors;
  (results, Array.fold_left max start finished -. start, steal ())

(* --- the in-process replay ----------------------------------------- *)

(* Mirrors [Serve.process] for the ops the workloads send: decode,
   parse, plan-cache lookup (prepare on a miss) and the resilient scan
   on a pool worker, durable commit on the calling thread, encode. *)
module Replay = struct
  type entry = { session : Session.t; generation : int; store : Store.t option }

  type t = {
    cache : L.Plan_cache.t;
    pool : L.Serve_pool.t;
    dbs : (string, entry) Hashtbl.t;
    mutable next_generation : int;
    data_dir : string option;
    (* WAL counters over the timed window: stores alive (with their
       counters when the window opened) and the totals of stores the
       window retired. *)
    mutable window_open : bool;
    mutable tracked : (Store.t * L.Wal.counters) list;
    mutable retired : int * int * int;  (* appends, fsyncs, bytes *)
  }

  let zero = { L.Wal.c_appends = 0; c_fsyncs = 0; c_bytes = 0 }

  let create ~data_dir =
    {
      cache = L.Plan_cache.create ();
      pool = L.Serve_pool.create ~workers ~queue_capacity:queue ();
      dbs = Hashtbl.create 8;
      next_generation = 0;
      data_dir;
      window_open = false;
      tracked = [];
      retired = (0, 0, 0);
    }

  let retire t store =
    match List.assq_opt store t.tracked with
    | None -> ()
    | Some base ->
      let c = Store.wal_counters store in
      let a, f, b = t.retired in
      t.retired <-
        ( a + c.c_appends - base.L.Wal.c_appends,
          f + c.c_fsyncs - base.c_fsyncs,
          b + c.c_bytes - base.c_bytes );
      t.tracked <- List.filter (fun (s, _) -> s != store) t.tracked

  let open_window t =
    t.window_open <- true;
    t.retired <- (0, 0, 0);
    t.tracked <-
      Hashtbl.fold
        (fun _ e acc ->
          match e.store with
          | Some s -> (s, Store.wal_counters s) :: acc
          | None -> acc)
        t.dbs []

  (* (appends, fsyncs, bytes) logged inside the window. *)
  let window_wal t =
    List.iter (fun (s, _) -> retire t s) t.tracked;
    t.retired

  let install t name entry =
    let previous = Hashtbl.find_opt t.dbs name in
    Hashtbl.replace t.dbs name entry;
    (match entry.store with
    | Some s when t.window_open -> t.tracked <- (s, zero) :: t.tracked
    | _ -> ());
    match previous with
    | Some { store = Some old; _ } ->
      retire t old;
      Store.close old
    | _ -> ()

  let do_load t ~name ~path =
    let db = L.Ldb_format.load path in
    let generation = t.next_generation in
    t.next_generation <- generation + 1;
    let entry =
      match t.data_dir with
      | None -> { session = Session.create db; generation; store = None }
      | Some data_dir ->
        let dir = L.Recovery.db_dir ~data_dir ~name in
        let store = Store.create ~dir ~sync ~snapshot_every db in
        { session = Store.session store; generation; store = Some store }
    in
    install t name entry;
    Protocol.ok
      [
        ("db", Json.Str name);
        ("constants", Json.Num (float_of_int (List.length (Cw.constants db))));
        ("facts", Json.Num (float_of_int (List.length (Cw.facts db))));
        ("durable", Json.Bool (entry.store <> None));
      ]

  (* What the replay learns about one request besides its spans. *)
  type info = {
    mutable hit : bool option;
    mutable scan : Certain.stats option;
  }

  let rows_json r =
    Json.List
      (List.map
         (fun tuple -> Json.List (List.map (fun c -> Json.Str c) tuple))
         (Relation.tuples r))

  let qualified_tag = function
    | Resilient.Exact _ -> "exact"
    | Resilient.Lower_bound _ -> "lower_bound"
    | Resilient.Upper_bound _ -> "upper_bound"
    | Resilient.Exhausted -> "exhausted"

  let evaluate t tr ~parent info ~want_boolean ~(opts : Protocol.eval_options) entry
      ~db_name ~query_text q =
    let session = entry.session in
    let delta = Session.delta_epoch session in
    let prepared, verdict =
      Tracer.span tr ~parent "plan_cache.lookup" (fun lookup ->
          L.Plan_cache.find_or_prepare t.cache ~db_name ~generation:entry.generation
            ~delta ~query_text ~kernel:opts.kernel (fun () ->
              Tracer.span tr ~parent:lookup "certain.prepare" (fun _ ->
                  match opts.kernel with
                  | Certain.Strings ->
                    Certain.prepare ~kernel:Certain.Strings (Session.db session) q
                  | kernel -> Session.prepare ~kernel session q)))
    in
    info.hit <- Some (verdict = `Hit);
    let budget =
      L.Budget.make ?timeout:opts.timeout ?max_structures:opts.max_structures
        ?max_evaluations:opts.max_evaluations ()
    in
    let respond rstats payload qualified =
      Tracer.span tr ~parent "serve_json.encode" (fun _ ->
          let scan =
            match rstats.Resilient.scan with
            | Some s ->
              [
                ("structures", Json.Num (float_of_int s.Certain.structures));
                ("evaluations", Json.Num (float_of_int s.Certain.evaluations));
              ]
            | None -> []
          in
          Protocol.ok
            ([
               ("source", Json.Str (Resilient.source_to_string rstats.source));
               ("wall_ms", Json.Num (Int64.to_float rstats.wall_ns /. 1e6));
             ]
            @ scan @ payload
            @ [
                ("qualified", Json.Str qualified);
                ("cache", Json.Str (if verdict = `Hit then "hit" else "miss"));
                ("delta", Json.Num (float_of_int delta));
              ]))
    in
    if want_boolean || L.Query.is_boolean q then begin
      let qualified, rstats =
        Tracer.span tr ~parent "certain.scan" (fun _ ->
            Resilient.prepared_boolean_stats ~policy:opts.policy ~domains:opts.domains
              ~budget prepared)
      in
      info.scan <- rstats.scan;
      match qualified with
      | Resilient.Exhausted -> Protocol.error Protocol.Exhausted "budget exhausted"
      | Exact v | Lower_bound v | Upper_bound v ->
        respond rstats [ ("value", Json.Bool v) ] (qualified_tag qualified)
    end
    else begin
      let qualified, rstats =
        Tracer.span tr ~parent "certain.scan" (fun _ ->
            Resilient.prepared_answer_stats ~policy:opts.policy ~domains:opts.domains
              ~budget prepared)
      in
      info.scan <- rstats.scan;
      match qualified with
      | Resilient.Exhausted -> Protocol.error Protocol.Exhausted "budget exhausted"
      | Exact r | Lower_bound r | Upper_bound r ->
        respond rstats
          [
            ("rows", rows_json r);
            ("cardinality", Json.Num (float_of_int (Relation.cardinal r)));
          ]
          (qualified_tag qualified)
    end

  (* One-shot hand-off from a pool worker back to the submitter. *)
  let submit_and_wait t job =
    let lock = Mutex.create () and filled = Condition.create () in
    let slot = ref None in
    let fill v =
      Mutex.lock lock;
      slot := Some v;
      Condition.signal filled;
      Mutex.unlock lock
    in
    match
      L.Serve_pool.submit t.pool (fun ~cancelled ->
          fill
            (if cancelled then Protocol.error Protocol.Cancelled "pool stopping"
             else
               try job ()
               with e -> Protocol.error Protocol.Semantic_error (Printexc.to_string e)))
    with
    | `Accepted ->
      Mutex.lock lock;
      while !slot = None do
        Condition.wait filled lock
      done;
      Mutex.unlock lock;
      Option.get !slot
    | `Busy -> Protocol.error Protocol.Busy "request queue full"
    | `Stopping -> Protocol.error Protocol.Cancelled "pool stopping"

  let do_eval t tr ~root info ~want_boolean ~db_name ~query_text ~opts =
    match Hashtbl.find_opt t.dbs db_name with
    | None -> Protocol.error Protocol.Semantic_error "unknown database"
    | Some entry ->
      let q = Tracer.span tr ~parent:root "parser.query" (fun _ -> L.Parser.query query_text) in
      Tracer.span tr ~parent:root "serve_pool.submit" (fun submit ->
          let submitted = Util.now () in
          submit_and_wait t (fun () ->
              Tracer.record tr ~parent:submit "serve_pool.wait" submitted (Util.now ());
              Tracer.span tr ~parent:submit "serve_pool.job" (fun job ->
                  evaluate t tr ~parent:job info ~want_boolean ~opts entry ~db_name
                    ~query_text q)))

  let parse_fact text =
    match L.Parser.formula text with
    | L.Formula.Atom (pred, ts) when List.for_all L.Term.is_const ts ->
      {
        Cw.pred;
        args =
          List.filter_map (function L.Term.Const c -> Some c | L.Term.Var _ -> None) ts;
      }
    | _ -> invalid_arg "fact must be a ground atom"

  let mutation_ok ~db_name entry =
    let db = Session.db entry.session in
    Protocol.ok
      [
        ("db", Json.Str db_name);
        ("delta", Json.Num (float_of_int (Session.delta_epoch entry.session)));
        ("facts", Json.Num (float_of_int (List.length (Cw.facts db))));
        ("constants", Json.Num (float_of_int (List.length (Cw.constants db))));
        ("durable", Json.Bool (entry.store <> None));
      ]

  let do_mutation t tr ~root ~db_name mutation =
    match Hashtbl.find_opt t.dbs db_name with
    | None -> Protocol.error Protocol.Semantic_error "unknown database"
    | Some entry ->
      let m = mutation () in
      (match entry.store with
      | Some store ->
        Tracer.span tr ~parent:root "durable_store.commit" (fun _ ->
            ignore (Store.commit store m))
      | None ->
        Tracer.span tr ~parent:root "incr_session.apply" (fun _ ->
            ignore (Session.apply entry.session m)));
      Tracer.span tr ~parent:root "serve_json.encode" (fun _ -> mutation_ok ~db_name entry)

  (* One request line in, (response, encoded bytes) out. *)
  let process t tr info line =
    Tracer.span tr ~parent:Tracer.none "serve.request" (fun root ->
        let request =
          Tracer.span tr ~parent:root "serve_json.decode" (fun _ ->
              Protocol.request_of_json (Json.parse line))
        in
        let fact text =
          Tracer.span tr ~parent:root "parser.fact" (fun _ -> parse_fact text)
        in
        let resp =
          match request with
          | Error (msg, code) -> Protocol.error code msg
          | Ok (Protocol.Load { name; path }) ->
            Tracer.span tr ~parent:root "serve.load" (fun _ -> do_load t ~name ~path)
          | Ok (Protocol.Query { db; query; opts }) ->
            do_eval t tr ~root info ~want_boolean:false ~db_name:db ~query_text:query ~opts
          | Ok (Protocol.Boolean { db; query; opts }) ->
            do_eval t tr ~root info ~want_boolean:true ~db_name:db ~query_text:query ~opts
          | Ok (Protocol.Insert { db; fact = f }) ->
            do_mutation t tr ~root ~db_name:db (fun () -> Session.Insert (fact f))
          | Ok (Protocol.Retract { db; fact = f }) ->
            do_mutation t tr ~root ~db_name:db (fun () -> Session.Retract (fact f))
          | Ok (Protocol.Close_unknown { db; left; right; equal }) ->
            do_mutation t tr ~root ~db_name:db (fun () -> Session.Close { left; right; equal })
          | Ok _ -> Protocol.error Protocol.Semantic_error "op not replayed"
        in
        let text = Tracer.span tr ~parent:root "serve_json.encode" (fun _ -> Json.to_string resp) in
        (resp, String.length text))

  let session_stats t name =
    Option.map (fun e -> Session.stats e.session) (Hashtbl.find_opt t.dbs name)

  let close t =
    L.Serve_pool.stop t.pool;
    Hashtbl.iter (fun _ e -> Option.iter Store.close e.store) t.dbs
end

type replayed = {
  r_client : int;
  r_pos : int;
  r_wall : float;  (* timed from outside the request, traced or not *)
  r_summary : Tracer.summary;
  r_bytes : int;
  r_hit : bool option;
  r_scan : Certain.stats option;
  r_memo : int * int;  (* memo hits, misses during the request *)
  r_slots : int * int;  (* slot reuses, rebuilds *)
  r_ok : bool;
}

type replay_result = {
  ops : replayed list;
  wal : int * int * int;
  counts : (string * (string * int) list) list;  (* per database *)
  plan_misses : int;
}

let db_of = function Load { db; _ } | Ask { db; _ } | Mutate { db; _ } -> db

let session_counts (s : Session.stats) =
  [
    ("memo_hits", s.s_memo_hits);
    ("memo_misses", s.s_memo_misses);
    ("slot_reuses", s.s_slot_reuses);
    ("slot_rebuilds", s.s_slot_rebuilds);
  ]

(* Replays set-up then, round-robin across clients, the first
   [done_.(c)] timed ops of each client's cycle (the ops the daemon
   answered in the timed window) on two replay servers in lockstep: one
   untraced, one traced, alternating which goes first block by block.
   The tracing overhead is then measured under the same conditions on
   both sides. *)
let replay kind scripts table done_ =
  let make dir = Replay.create ~data_dir:(match kind with Write -> Some dir | Read -> None) in
  let servers = [| (make "replay0", false); (make "replay1", true) |] in
  let one (t, enabled) c pos =
    let s = scripts.(c) in
    let name = db_of s.cycle.(pos) in
    let before = Replay.session_stats t name in
    let tr = Tracer.create ~enabled in
    let info = { Replay.hit = None; scan = None } in
    let t0 = Util.now () in
    let resp, bytes = Replay.process t tr info s.lines.(pos) in
    let wall = Util.now () -. t0 in
    let after = Replay.session_stats t name in
    let delta f =
      match (s.cycle.(pos), before, after) with
      | Load _, _, _ | _, None, _ | _, _, None -> (0, 0)
      | _, Some b, Some a -> f b a
    in
    {
      r_client = c;
      r_pos = pos;
      r_wall = wall;
      r_summary = Tracer.summarize tr;
      r_bytes = bytes;
      r_hit = info.hit;
      r_scan = info.scan;
      r_memo =
        delta (fun b a -> (a.s_memo_hits - b.s_memo_hits, a.s_memo_misses - b.s_memo_misses));
      r_slots =
        delta (fun b a ->
            (a.s_slot_reuses - b.s_slot_reuses, a.s_slot_rebuilds - b.s_slot_rebuilds));
      r_ok = response_ok table scripts c pos resp;
    }
  in
  let result (t, _) ops =
    let counts =
      Hashtbl.fold
        (fun name (e : Replay.entry) acc ->
          let wal =
            match e.store with
            | Some s -> [ ("wal_appends", (Store.wal_counters s).c_appends) ]
            | None -> []
          in
          (name, session_counts (Session.stats e.session) @ wal) :: acc)
        t.Replay.dbs []
    in
    let _, misses, _ = L.Plan_cache.stats t.cache in
    { ops = List.rev ops; wal = Replay.window_wal t; counts; plan_misses = misses }
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun (t, _) -> Replay.close t) servers)
    (fun () ->
      Array.iter
        (fun (t, _) ->
          Array.iter
            (fun s ->
              Array.iter
                (fun op ->
                  let info = { Replay.hit = None; scan = None } in
                  ignore (Replay.process t (Tracer.create ~enabled:false) info (wire op)))
                s.setup)
            scripts;
          Replay.open_window t)
        servers;
      let steps = ref [] in
      for i = 0 to Array.fold_left max 0 done_ - 1 do
        for c = 0 to clients - 1 do
          if i < done_.(c) then steps := (c, i mod Array.length scripts.(c).cycle) :: !steps
        done
      done;
      (* Blocks of [block] steps, each run on both servers in turn, so
         each server's caches are warm within a block as in the daemon. *)
      let block = 64 in
      let ops = [| []; [] |] in
      let run_block k steps =
        List.iter
          (fun server ->
            List.iter (fun (c, pos) -> ops.(server) <- one servers.(server) c pos :: ops.(server)) steps)
          (if k mod 2 = 0 then [ 0; 1 ] else [ 1; 0 ])
      in
      let rec blocks k acc n = function
        | [] -> if acc <> [] then run_block k (List.rev acc)
        | step :: rest ->
          if n = block then (
            run_block k (List.rev acc);
            blocks (k + 1) [ step ] 1 rest)
          else blocks k (step :: acc) (n + 1) rest
      in
      blocks 0 [] 0 (List.rev !steps);
      (result servers.(0) ops.(0), result servers.(1) ops.(1)))

(* The daemon's own counts for the same databases, from its stats op. *)
let daemon_counts stats =
  let num path j =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
    |> Fun.flip Option.bind Json.to_num
    |> Option.map int_of_float
  in
  let sessions =
    match Json.member "sessions" stats with Some (Json.Obj s) -> s | _ -> []
  in
  let per_db =
    List.map
      (fun (name, s) ->
        ( name,
          List.filter_map
            (fun k -> Option.map (fun v -> (k, v)) (num [ k ] s))
            [ "memo_hits"; "memo_misses"; "slot_reuses"; "slot_rebuilds"; "wal_appends" ] ))
      sessions
  in
  (per_db, Option.value ~default:(-1) (num [ "plan_cache"; "misses" ] stats))

(* --- one run -------------------------------------------------------- *)

let is_query = function Ask _ -> true | Load _ | Mutate _ -> false
let is_mutation = function Mutate _ -> true | Load _ | Ask _ -> false

let ms x = x *. 1000.
let us x = x *. 1e6

let run ~ldb kind ~seed ~seconds ~trace =
  let scripts = scripts kind ~seed in
  Array.iter
    (fun s -> List.iter (fun (path, db) -> L.Ldb_format.save path db) s.files)
    scripts;
  (* Set-up several times; keep the last daemon for the timed loop. *)
  let setup_times, daemon =
    let rec go i acc =
      let t0 = Util.now () in
      let d = start ~ldb kind scripts i in
      let dt = Util.now () -. t0 in
      if i + 1 < setups then (
        stop d;
        go (i + 1) (dt :: acc))
      else (dt :: acc, d)
    in
    go 0 []
  in
  let samples, window, steal = timed_loop daemon scripts ~seconds in
  let stats = Client.request daemon.conns.(0) (Json.Obj [ ("op", Json.Str "stats") ]) in
  let rss = Util.peak_rss_mb (string_of_int daemon.pid) in
  stop daemon;
  let table = Hashtbl.create 64 in
  let flat =
    List.concat
      (Array.to_list (Array.mapi (fun c l -> List.map (fun s -> (c, s)) l) samples))
  in
  let attempted = List.length flat in
  let failed =
    List.length
      (List.filter (fun (c, s) -> not (response_ok table scripts c s.pos s.resp)) flat)
  in
  let lat pred =
    List.filter_map
      (fun (c, s) -> if pred scripts.(c).cycle.(s.pos) then Some s.latency else None)
      flat
  in
  let q_lat = lat is_query and m_lat = lat is_mutation in
  let q_timed =
    List.filter_map
      (fun (c, s) -> if is_query scripts.(c).cycle.(s.pos) then Some (s.at, s.latency) else None)
      flat
  in
  let e2e =
    [
      ("setup_s", Util.median setup_times, "s");
      ("ops_per_s", Util.throughput ~steal (List.map (fun (_, s) -> s.at) flat), "1/s");
      ("latency_p50_ms", ms (Util.p50 ~steal q_timed), "ms");
      ("latency_p99_ms", ms (Util.p99 ~steal q_timed), "ms");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let extra =
    [
      ("latency_samples", float_of_int (List.length q_lat), "count");
      ("failed_frac", Util.ratio failed attempted, "ratio");
    ]
    @
    if m_lat = [] then []
    else
      [
        ("mutation_p50_ms", ms (Util.median m_lat), "ms");
        ("mutation_p99_ms", ms (Util.percentile 0.99 m_lat), "ms");
        ("mutation_samples", float_of_int (List.length m_lat), "count");
      ]
  in
  let sizes =
    [
      ("constants", Json.Num (float_of_int constants));
      ("unknowns", Json.Num (float_of_int unknowns));
      ("session_cache_capacity", Json.Num 4096.);
      ( "databases",
        Json.Num (float_of_int (match kind with Read -> 1 | Write -> clients * variants)) );
    ]
  in
  if not trace then
    { Report.attempted; failed; correct = failed = 0; e2e; extra; layers = [];
      info = [ ("daemon", Json.Obj (flags kind)); ("sizes", Json.Obj sizes) ] }
  else begin
    let done_ = Array.map List.length samples in
    let untraced, traced = replay kind scripts table done_ in
    let ops = traced.ops in
    let op_of r = scripts.(r.r_client).cycle.(r.r_pos) in
    let qs = List.filter (fun r -> is_query (op_of r)) ops in
    let muts = List.filter (fun r -> is_mutation (op_of r)) ops in
    let mean_over rs f = Util.mean (List.map f rs) in
    let self name r = Tracer.self_of name r.r_summary in
    let dur name r = Tracer.dur_of name r.r_summary in
    let sum_pair f = List.fold_left (fun (a, b) r -> let x, y = f r in (a + x, b + y)) (0, 0) in
    let memo_h, memo_m = sum_pair (fun r -> r.r_memo) ops in
    let reuse, rebuild = sum_pair (fun r -> r.r_slots) ops in
    let scans = List.filter_map (fun r -> r.r_scan) qs in
    let misses = List.filter (fun r -> r.r_hit = Some false) qs in
    let hits = List.filter (fun r -> r.r_hit = Some true) qs in
    let appends, fsyncs, wal_bytes = traced.wal in
    let client_mean = Util.mean q_lat in
    let replay_mean = mean_over qs (fun r -> r.r_summary.total) in
    let job_mean = mean_over qs (dur "serve_pool.job") in
    let q_rate = float_of_int (List.length q_lat) /. window in
    let wall_mean (r : replay_result) = mean_over r.ops (fun o -> o.r_wall) in
    let layers =
      [
        ("serve_json.decode_us", us (mean_over ops (self "serve_json.decode")), "us");
        ("serve_json.encode_us", us (mean_over ops (self "serve_json.encode")), "us");
        ("serve_json.response_bytes", mean_over ops (fun r -> float_of_int r.r_bytes), "bytes");
        ("parser.query_us", us (mean_over qs (self "parser.query")), "us");
        ("plan_cache.hit_ratio", Util.ratio (List.length hits) (List.length qs), "ratio");
        ("plan_cache.lookup_us", us (mean_over qs (self "plan_cache.lookup")), "us");
        ("certain.prepare_us", us (mean_over misses (dur "certain.prepare")), "us");
        ("serve_pool.wait_us_p50", us (Util.median (List.map (dur "serve_pool.wait") qs)), "us");
        ("serve_pool.wait_us_p99", us (Util.percentile 0.99 (List.map (dur "serve_pool.wait") qs)), "us");
        ("serve_pool.busy_frac", q_rate *. job_mean /. float_of_int workers, "ratio");
        ("certain.scan_us_p50", us (Util.median (List.map (dur "certain.scan") qs)), "us");
        ("certain.scan_us_p99", us (Util.percentile 0.99 (List.map (dur "certain.scan") qs)), "us");
        ("certain.structures_per_query",
         Util.mean (List.map (fun s -> float_of_int s.Certain.structures) scans), "count");
        ("certain.evaluations_per_query",
         Util.mean (List.map (fun s -> float_of_int s.Certain.evaluations) scans), "count");
        ("certain.early_exit_ratio",
         Util.ratio (List.length (List.filter (fun s -> s.Certain.early_exit) scans)) (List.length scans),
         "ratio");
        ("incr_session.memo_hit_ratio", Util.ratio memo_h (memo_h + memo_m), "ratio");
        ("incr_session.slot_reuse_ratio", Util.ratio reuse (reuse + rebuild), "ratio");
        ("durable_store.commit_us_p50", us (Util.median (List.map (dur "durable_store.commit") muts)), "us");
        ("durable_store.commit_us_p99",
         us (Util.percentile 0.99 (List.map (dur "durable_store.commit") muts)), "us");
        ("wal.fsyncs_per_commit", Util.ratio fsyncs appends, "ratio");
        ("wal.bytes_per_mutation", Util.ratio wal_bytes (List.length muts), "bytes");
        ("serve.residual_ms", ms (client_mean -. replay_mean), "ms");
        ("trace.overhead_frac", (wall_mean traced /. wall_mean untraced) -. 1., "ratio");
      ]
    in
    (* The accounting: per-layer self time per query op, which with the
       residual adds up to the client-side mean latency. *)
    let layer_names =
      List.sort_uniq compare
        (List.concat_map (fun r -> List.map fst r.r_summary.Tracer.self) qs)
    in
    Printf.printf "accounting (query ops, mean per op, ms):\n";
    List.iter
      (fun name -> Printf.printf "  %-24s %9.4f\n" name (ms (mean_over qs (self name))))
      layer_names;
    Printf.printf "  %-24s %9.4f\n  %-24s %9.4f\n  %-24s %9.4f\n" "= replayed total"
      (ms replay_mean) "+ serve.residual" (ms (client_mean -. replay_mean))
      "= client mean latency" (ms client_mean);
    (* Counts beside the daemon's own: on serve-write each client owns
       its database, so they must agree exactly. *)
    let daemon_db, daemon_misses = daemon_counts stats in
    let mismatches = ref 0 in
    Printf.printf "counts (daemon / replay):\n";
    Printf.printf "  %-14s %-14s %8d %8d\n" "*" "plan_misses" daemon_misses traced.plan_misses;
    if daemon_misses <> traced.plan_misses then incr mismatches;
    List.iter
      (fun (name, replay_counts) ->
        let d = Option.value ~default:[] (List.assoc_opt name daemon_db) in
        List.iter
          (fun (k, v) ->
            let dv = Option.value ~default:(-1) (List.assoc_opt k d) in
            Printf.printf "  %-14s %-14s %8d %8d\n" name k dv v;
            if dv <> v then incr mismatches)
          replay_counts)
      (List.sort compare traced.counts);
    let replay_failed =
      List.length
        (List.filter (fun r -> not r.r_ok) (untraced.ops @ traced.ops))
    in
    let parity_ok = kind = Read || !mismatches = 0 in
    if not parity_ok then
      Printf.printf "counts differ: the replay does not mirror the daemon\n";
    {
      Report.attempted;
      failed;
      correct = failed = 0 && replay_failed = 0 && parity_ok;
      e2e;
      extra =
        extra
        @ [
            ("replay_failed", float_of_int replay_failed, "count");
            ("count_mismatches", float_of_int !mismatches, "count");
          ];
      layers;
      info = [ ("daemon", Json.Obj (flags kind)); ("sizes", Json.Obj sizes) ];
    }
  end
