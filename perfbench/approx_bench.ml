(* approx-batch: the Section 5 approximation A(Q, LB) = Q̂(Ph₂(LB)),
   in-process and single-threaded, over a seeded pool of CW databases
   at three sizes. Serve has no approx op, so this is the workload that
   exercises Translate, Ph, Disagree, Yannakakis, Compile, Optimizer and
   Algebra; the serve workloads bypass all of them.

   Each database gets acyclic path and star CQs, a many-to-many chain
   with dangling tuples (the shape where semijoin reduction bounds the
   intermediates), a cyclic triangle (the fallback path) and two
   negation-bearing queries (the α_P virtuals). Quantifiers are nested
   next to the atoms that bind them so the Direct reference evaluator
   finishes in seconds. *)

module L = Logicaldb
module Cw = L.Cw_database
module Relation = L.Relation
module Json = L.Serve_json

let sizes = [ 32; 64; 128 ]
let dbs_per_size = 2
let setups = 5

let queries =
  [
    ("path", "(x, z). exists y. E(x, y) /\\ F(y, z)");
    ("star", "(x, y). E(x, y) /\\ (exists z. F(x, z) /\\ P(z)) /\\ (exists w. G(x, w))");
    ("chain", "(x). exists y. M1(x, y) /\\ (exists z. M2(y, z) /\\ (exists w. M3(z, w)))");
    ("triangle", "(x, y). E(x, y) /\\ (exists z. E(y, z) /\\ E(z, x))");
    ("neg-unary", "(x). exists y. E(x, y) /\\ ~P(y)");
    ("neg-pair", "(x, y). F(x, y) /\\ ~P(x) /\\ ~P(y)");
  ]

let positive name = not (String.length name > 3 && String.sub name 0 4 = "neg-")

(* [n] constants, the first [n/16] (at least 2) unknown. E, F, G are
   random with about 2n tuples each. The chain relations join a block
   A to hubs H to a block B all-to-all, so M1 ⋈ M2 has |A|·|H|·|B|
   rows, while M3 leaves B from one element only: most of that
   intermediate dangles. *)
let make_db ~n ~seed =
  let rng = Random.State.make [| seed; n |] in
  let c i = Printf.sprintf "c%d" i in
  let names = List.init n c in
  let unknowns = max 2 (n / 16) in
  let rand () = c (Random.State.int rng n) in
  let random_rel pred count = List.init count (fun _ -> (pred, [ rand (); rand () ])) in
  let block lo len = List.init len (fun i -> c (lo + i)) in
  let a = block 0 (n / 4) and h = block (n / 4) (max 2 (n / 16)) in
  let b = block ((n / 4) + max 2 (n / 16)) (n / 4) in
  let rest = block ((n / 2) + max 2 (n / 16)) (n / 4) in
  let all_pairs pred xs ys = List.concat_map (fun x -> List.map (fun y -> (pred, [ x; y ])) ys) xs in
  let m3 =
    List.map (fun y -> ("M3", [ List.hd b; y ])) (List.filteri (fun i _ -> i < 4) rest)
    @ List.init n (fun _ -> ("M3", [ List.nth rest (Random.State.int rng (List.length rest)); rand () ]))
  in
  let facts =
    random_rel "E" (2 * n) @ random_rel "F" (2 * n) @ random_rel "G" (2 * n)
    @ List.init (n / 2) (fun _ -> ("P", [ rand () ]))
    @ all_pairs "M1" a h @ all_pairs "M2" h b @ m3
  in
  let distinct =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun j -> if i >= unknowns && j > i then Some (c i, c j) else None)
             (List.init n Fun.id)))
  in
  Cw.make
    ~vocabulary:
      (L.Vocabulary.make ~constants:names
         ~predicates:
           [ ("E", 2); ("F", 2); ("G", 2); ("P", 1); ("M1", 2); ("M2", 2); ("M3", 2) ])
    ~facts:(List.sort_uniq compare (List.map (fun (pred, args) -> { Cw.pred; args }) facts))
    ~distinct

type item = { size : int; db : Cw.t; name : string; q : L.Query.t }

let pool ~seed =
  let items =
    List.concat_map
      (fun n ->
        List.concat
          (List.init dbs_per_size (fun i ->
               let db = make_db ~n ~seed:((seed * 131) + i) in
               List.map (fun (name, text) -> { size = n; db; name; q = L.Parser.query text }) queries)))
      sizes
  in
  let rng = Random.State.make [| seed; 3 |] in
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let timed it = L.Approx.answer ~backend:L.Approx.Algebra_optimized it.db it.q

(* The pipeline [Approx.answer] runs, stage by stage, each call into a
   layer wrapped in a span. *)
let staged tr it =
  let span parent name f = Tracer.span tr ~parent name f in
  span Tracer.none "approx.answer" (fun root ->
      span root "query_check" (fun _ -> L.Query_check.validate it.db it.q);
      let hat = span root "translate" (fun _ -> L.Translate.query L.Translate.Semantic it.q) in
      let ph2 = span root "ph.ph2" (fun _ -> L.Ph.ph2 it.db) in
      let hooks = span root "disagree" (fun _ -> L.Disagree.virtuals it.db) in
      let fast =
        span root "yannakakis" (fun _ ->
            Option.map (L.Yannakakis.run ~virtuals:hooks ph2) (L.Yannakakis.plan ~virtuals:hooks ph2 hat))
      in
      let answer =
        match fast with
        | Some r -> r
        | None ->
          let plan = span root "compile" (fun _ -> L.Compile.query ph2 hat) in
          let plan = span root "optimizer" (fun _ -> L.Optimizer.optimize ph2 plan) in
          span root "algebra.run" (fun _ -> L.Algebra.run ~virtuals:hooks ph2 plan)
      in
      (answer, hat, ph2, fast <> None))

(* References, none of them the timed evaluator: Direct (Tarskian)
   evaluation of Q̂ on Ph₂ for every item, and on the smallest size the
   exact engine — A(Q,LB) ⊆ Q(LB) always (Thm 11), equality for
   positive queries (Thm 13). *)
let check it got =
  let direct = L.Approx.answer ~backend:L.Approx.Direct it.db it.q in
  Relation.equal got direct
  &&
  if it.size <> List.hd sizes then true
  else
    let exact = L.Certain.answer it.db it.q in
    Relation.subset got exact && ((not (positive it.name)) || Relation.equal got exact)

let us x = x *. 1e6

(* One staged call of the traced run. *)
type staged_call = {
  summary : Tracer.summary;
  wall : float;
  same : bool;  (* the answer the timed evaluator gave for this item *)
  hat_ratio : float;  (* |Q̂| / |Q| *)
  ph2_tuples : float;
  fast : bool;  (* Yannakakis took it *)
}

let run ~seed ~seconds ~trace =
  let setup () =
    let t0 = Util.now () in
    let items = pool ~seed in
    Array.iter (fun it -> ignore (timed it)) items;
    (Util.now () -. t0, items)
  in
  let setup_times, items =
    let rec go i acc =
      let dt, items = setup () in
      if i + 1 < setups then go (i + 1) (dt :: acc) else (dt :: acc, items)
    in
    go 0 []
  in
  let n = Array.length items in
  (* Only each item's first answer is kept; later calls are compared
     with it after their clock stops, so memory does not grow with the
     run. *)
  let first = Array.make n None in
  let results = ref [] and finished = ref [] in
  let start = Util.now () in
  let deadline = start +. seconds in
  let steal = Util.steal_sampler ~start ~seconds:(int_of_float seconds) in
  let rec loop i =
    if Util.now () < deadline then begin
      let it = items.(i mod n) in
      let t0 = Util.now () in
      let r = timed it in
      let t1 = Util.now () in
      finished := (t1 -. start) :: !finished;
      let same =
        match first.(i mod n) with
        | None ->
          first.(i mod n) <- Some r;
          true
        | Some f -> Relation.equal r f
      in
      results := (i mod n, t1 -. t0, same) :: !results;
      loop (i + 1)
    end
  in
  loop 0;
  let steal = steal () in
  let rss = Util.peak_rss_mb "self" in
  let results = List.rev !results in
  let verdicts = Array.mapi (fun i r -> Option.map (check items.(i)) r) first in
  let ok (i, _, same) = same && verdicts.(i) = Some true in
  let attempted = List.length results in
  let failed = List.length (List.filter (fun x -> not (ok x)) results) in
  let lat = List.map (fun (_, t, _) -> t) results in
  let timed = List.combine (List.rev !finished) lat in
  Printf.printf "approx calls by size and shape (mean ms, calls):\n";
  List.iter
    (fun n ->
      List.iter
        (fun (name, _) ->
          let ts =
            List.filter_map
              (fun (i, t, _) -> if items.(i).size = n && items.(i).name = name then Some t else None)
              results
          in
          Printf.printf "  %4d %-12s %10.4f %6d\n" n name (Util.mean ts *. 1000.) (List.length ts))
        queries)
    sizes;
  let e2e =
    [
      ("setup_s", Util.median setup_times, "s");
      ("ops_per_s", Util.throughput ~steal !finished, "1/s");
      ("latency_p50_ms", Util.p50 ~steal timed *. 1000., "ms");
      ("latency_p99_ms", Util.p99 ~steal timed *. 1000., "ms");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let extra =
    [
      ("latency_samples", float_of_int attempted, "count");
      ("failed_frac", Util.ratio failed attempted, "ratio");
    ]
  in
  let info =
    [
      ( "sizes",
        Json.Obj
          [
            ("constants", Json.List (List.map (fun n -> Json.Num (float_of_int n)) sizes));
            ("databases_per_size", Json.Num (float_of_int dbs_per_size));
            ("queries_per_database", Json.Num (float_of_int (List.length queries)));
          ] );
    ]
  in
  if not trace then
    { Report.attempted; failed; correct = failed = 0; e2e; extra; layers = []; info }
  else begin
    (* The same calls, in the same order, through the staged pipeline,
       each call twice in lockstep, untraced and traced, alternating
       which goes first: the overhead is measured under the same
       conditions on both sides. *)
    let once enabled i =
      let tr = Tracer.create ~enabled in
      let t0 = Util.now () in
      let answer, hat, ph2, fast = staged tr items.(i) in
      let wall = Util.now () -. t0 in
      let size q = float_of_int (L.Formula.size (L.Query.body q)) in
      {
        summary = Tracer.summarize tr;
        wall;
        same = (match first.(i) with Some f -> Relation.equal answer f | None -> false);
        hat_ratio = size hat /. size items.(i).q;
        ph2_tuples = float_of_int (L.Database.size ph2);
        fast;
      }
    in
    let pairs =
      List.mapi
        (fun k (i, _, _) ->
          if k mod 2 = 0 then
            let u = once false i in
            (u, once true i)
          else
            let t = once true i in
            (once false i, t))
        results
    in
    let untraced = List.map fst pairs and traced = List.map snd pairs in
    let wall_mean runs = Util.mean (List.map (fun s -> s.wall) runs) in
    let mean f = Util.mean (List.map f traced) in
    let self name s = Tracer.self_of name s.summary in
    let fallback = List.filter (fun s -> not s.fast) traced in
    let mean_fallback name = Util.mean (List.map (self name) fallback) in
    let staged_failed = List.length (List.filter (fun s -> not s.same) (untraced @ traced)) in
    let layers =
      [
        ("query_check.us", us (mean (self "query_check")), "us");
        ("translate.us", us (mean (self "translate")), "us");
        ("translate.hat_ratio", mean (fun s -> s.hat_ratio), "ratio");
        ("ph.ph2_us", us (mean (self "ph.ph2")), "us");
        ("ph.ph2_tuples", mean (fun s -> s.ph2_tuples), "count");
        ("disagree.us", us (mean (self "disagree")), "us");
        ("yannakakis.us", us (mean (self "yannakakis")), "us");
        ( "yannakakis.detect_ratio",
          Util.ratio (List.length traced - List.length fallback) (List.length traced),
          "ratio" );
        ("compile.us", us (mean_fallback "compile"), "us");
        ("optimizer.us", us (mean_fallback "optimizer"), "us");
        ("algebra.run_us", us (mean_fallback "algebra.run"), "us");
        ("trace.overhead_frac", (wall_mean traced /. wall_mean untraced) -. 1., "ratio");
      ]
    in
    Printf.printf "accounting (approx calls, mean per call, ms):\n";
    List.iter
      (fun name -> Printf.printf "  %-24s %9.4f\n" name (mean (self name) *. 1000.))
      [ "approx.answer"; "query_check"; "translate"; "ph.ph2"; "disagree"; "yannakakis";
        "compile"; "optimizer"; "algebra.run" ];
    Printf.printf "  %-24s %9.4f\n  %-24s %9.4f\n" "= staged total"
      (mean (fun s -> s.summary.Tracer.total) *. 1000.)
      "untraced mean" (Util.mean lat *. 1000.);
    {
      Report.attempted;
      failed;
      correct = failed = 0 && staged_failed = 0;
      e2e;
      extra = extra @ [ ("staged_failed", float_of_int staged_failed, "count") ];
      layers;
      info;
    }
  end
