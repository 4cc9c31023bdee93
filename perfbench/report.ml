(* What one run reports, and the names every run reports under. *)

module Json = Logicaldb.Serve_json

type metric = string * float * string  (* name, value, unit *)

type t = {
  attempted : int;
  failed : int;  (* failed, busy, unexpected code or wrong answer *)
  correct : bool;
  e2e : metric list;  (* the gated end-to-end metrics *)
  extra : metric list;  (* reported, not gated *)
  layers : metric list;  (* traced run only *)
  info : (string * Json.t) list;  (* sizes, daemon flags *)
}

(* The per-layer metrics in BENCHMARK.json. A layer that does not run
   on a workload reports 0: no time was spent in it. *)
let layer_units =
  [
    ("serve_json.decode_us", "us");
    ("serve_json.encode_us", "us");
    ("serve_json.response_bytes", "bytes");
    ("parser.query_us", "us");
    ("plan_cache.hit_ratio", "ratio");
    ("plan_cache.lookup_us", "us");
    ("certain.prepare_us", "us");
    ("serve_pool.wait_us_p50", "us");
    ("serve_pool.wait_us_p99", "us");
    ("serve_pool.busy_frac", "ratio");
    ("certain.scan_us_p50", "us");
    ("certain.scan_us_p99", "us");
    ("certain.structures_per_query", "count");
    ("certain.evaluations_per_query", "count");
    ("certain.early_exit_ratio", "ratio");
    ("incr_session.memo_hit_ratio", "ratio");
    ("incr_session.slot_reuse_ratio", "ratio");
    ("durable_store.commit_us_p50", "us");
    ("durable_store.commit_us_p99", "us");
    ("wal.fsyncs_per_commit", "ratio");
    ("wal.bytes_per_mutation", "bytes");
    ("serve.residual_ms", "ms");
    ("query_check.us", "us");
    ("translate.us", "us");
    ("translate.hat_ratio", "ratio");
    ("ph.ph2_us", "us");
    ("ph.ph2_tuples", "count");
    ("disagree.us", "us");
    ("yannakakis.us", "us");
    ("yannakakis.detect_ratio", "ratio");
    ("compile.us", "us");
    ("optimizer.us", "us");
    ("algebra.run_us", "us");
    ("trace.overhead_frac", "ratio");
  ]

let all_layers measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some m -> m
      | None -> (name, 0., unit))
    layer_units

let num f = Json.Num (if Float.is_finite f then f else 0.)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
       ms)

let print_metrics title ms =
  Printf.printf "%s:\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6f %s\n" name v unit) ms
