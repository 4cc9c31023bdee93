(* The paper's experiment tables and their micro-benchmarks.

   Part 1 re-runs every experiment (E1-E12 and the A1-A4 ablations —
   the full Experiments.Registry.all) and prints its result table — one
   table per theorem of the paper's evaluation; EXPERIMENTS.md records
   a reference run.

   Part 2 runs Bechamel micro-benchmarks, one Test.make per experiment,
   timing the representative operation behind each table with OLS
   regression over the monotonic clock.

   Part 3 prints a per-phase breakdown of the E1-medium workload
   through the Vardi_obs span layer, next to the Bechamel numbers.

   Run with: dune exec bench/main.exe
   (pass --tables-only or --micro-only to restrict; --e1-sanity and
    --acq-sanity [--min-speedup F] are the CI smoke gates described
    below). Every figure is printed only: the machine-readable,
    cross-commit benchmark is perfbench/ (see perfbench/README.md). *)

open Bechamel
open Toolkit
module Experiments = Vardi_experiments
module Workloads = Vardi_experiments.Workloads

let print_tables () =
  Fmt.pr "============================================================@.";
  Fmt.pr " Experiment report: Vardi, Querying Logical Databases (1985)@.";
  Fmt.pr "============================================================@.";
  List.iter
    (fun (_, _, run) -> Fmt.pr "%a@." Experiments.Table.pp (run ()))
    Experiments.Registry.all

(* --- Bechamel micro-benchmarks, one per experiment --- *)

let stage = Staged.stage

let micro_tests () =
  let module Certain = Vardi_certain.Engine in
  let module Approx = Vardi_approx.Evaluate in
  let module Precise = Vardi_approx.Precise_simulation in
  let module Alpha = Vardi_approx.Alpha in
  let module Ne_virtual = Vardi_cwdb.Ne_virtual in
  let module Graph = Vardi_reductions.Graph in
  let module Qbf = Vardi_reductions.Qbf in
  let module Three_col = Vardi_reductions.Three_col in
  let module Qbf_fo = Vardi_reductions.Qbf_fo in
  let module Qbf_so = Vardi_reductions.Qbf_so in
  let db_small = Workloads.parametric_db ~constants:5 ~unknowns:3 ~seed:42 in
  let db_medium = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let db_tiny = Workloads.parametric_db ~constants:2 ~unknowns:2 ~seed:11 in
  let graph = Graph.random ~vertices:5 ~edge_probability:0.5 ~seed:1 in
  let qbf_fo = Qbf.random_cnf3 ~blocks:[ 2; 2 ] ~clauses:3 ~seed:5 in
  let qbf_so = Qbf.random_cnf3 ~blocks:[ 1; 1 ] ~clauses:2 ~seed:3 in
  let q = Workloads.mixed_query in
  [
    Test.make ~name:"e1/exact-vs-unknowns"
      (stage (fun () -> Certain.answer db_small q));
    Test.make ~name:"e1/exact-medium"
      (stage (fun () -> Certain.answer db_medium q));
    (* The same scan on the string-keyed reference kernel: the gap to
       e1/exact-medium is the compiled kernel's speedup (E15). *)
    Test.make ~name:"e1/exact-medium-strings"
      (stage (fun () -> Certain.answer ~kernel:Certain.Strings db_medium q));
    Test.make ~name:"e1/exact-medium-par4"
      (stage (fun () -> Certain.answer ~domains:4 db_medium q));
    Test.make ~name:"e2/precise-simulation"
      (stage (fun () -> Precise.answer db_tiny Workloads.positive_query));
    Test.make ~name:"e3/three-colorability"
      (stage (fun () -> Three_col.colorable_via_certain graph));
    Test.make ~name:"e4/qbf-fo"
      (stage (fun () -> Qbf_fo.eval_via_certain qbf_fo));
    Test.make ~name:"e5/qbf-so"
      (stage (fun () -> Qbf_so.eval_via_certain qbf_so));
    Test.make ~name:"e6/approx-quality"
      (stage (fun () -> Approx.answer db_small q));
    Test.make ~name:"e7/approx-scaling"
      (stage (fun () -> Approx.answer db_medium q));
    Test.make ~name:"e8/alpha-size"
      (stage (fun () -> Alpha.formula ~pred:"P" ~arity:8));
    Test.make ~name:"e9/virtual-ne"
      (stage (fun () -> Ne_virtual.make db_medium));
    Test.make ~name:"e10/expression-ratio"
      (stage (fun () ->
           Certain.certain_boolean db_small Workloads.negative_sentence));
    Test.make ~name:"e11/naive-tables"
      (stage (fun () -> Vardi_approx.Naive_tables.answer db_medium q));
    Test.make ~name:"e12/sampling"
      (stage (fun () ->
           Vardi_certain.Sampling.boolean ~samples:8 ~seed:1 db_small
             Workloads.negative_sentence));
    Test.make ~name:"abl/naive-exact"
      (stage (fun () ->
           Certain.certain_boolean ~algorithm:Certain.Naive_mappings db_tiny
             Workloads.negative_sentence));
    Test.make ~name:"abl/algebra-backend"
      (stage (fun () -> Approx.answer ~backend:Approx.Algebra db_medium q));
    Test.make ~name:"abl/optimized-backend"
      (stage (fun () ->
           Approx.answer ~backend:Approx.Algebra_optimized db_medium q));
    Test.make ~name:"abl/syntactic-alpha"
      (stage (fun () ->
           Approx.answer ~mode:Vardi_approx.Translate.Syntactic db_medium q));
    Test.make ~name:"abl/merge-first"
      (stage (fun () ->
           Certain.certain_boolean ~order:Certain.Merge_first db_small
             Workloads.negative_sentence));
    Test.make ~name:"extra/reiter"
      (stage (fun () -> Vardi_approx.Reiter.answer db_small q));
    Test.make ~name:"extra/explain"
      (stage (fun () ->
           Vardi_certain.Explain.boolean db_small Workloads.negative_sentence));
    (* Observability overhead on the E1-medium hot path. The first
       entry repeats e1/exact-medium under a different name: the engine
       is instrumented unconditionally, so the delta between the two
       identically-coded entries is the measurement noise floor, and
       the disabled-sink cost must sit inside it (acceptance: < 3%).
       The second entry installs an in-memory sink, showing what full
       event collection costs. *)
    Test.make ~name:"obs/e1-medium-nullsink"
      (stage (fun () -> Certain.answer db_medium q));
    Test.make ~name:"obs/e1-medium-memsink"
      (stage (fun () ->
           let buf = Logicaldb.Obs.buffer () in
           Logicaldb.Obs.with_sink (Logicaldb.Obs.buffer_sink buf) (fun () ->
               Certain.answer db_medium q)));
    (* Cancellation overhead on the same hot path. The first entry
       threads a token whose generous limits never trip (but whose
       deadline check runs per chunk and whose caps truncate the
       stream positionally); the second goes through the full
       Resilient layer with an equally generous budget. Both must sit
       within the noise floor of e1/exact-medium (acceptance: < 3%,
       recorded in EXPERIMENTS.md E13). *)
    Test.make ~name:"resil/e1-medium-cancel"
      (stage (fun () ->
           let cancel =
             Logicaldb.Cancel.create
               ~deadline_ns:
                 (Int64.add (Logicaldb.Obs.now_ns ()) 3_600_000_000_000L)
               ~max_structures:max_int ~max_evaluations:max_int ()
           in
           Certain.answer ~cancel db_medium q));
    Test.make ~name:"resil/e1-medium-resilient"
      (stage (fun () ->
           Logicaldb.Resilient.answer
             ~budget:
               (Logicaldb.Budget.make ~timeout:3600. ~max_structures:max_int
                  ())
             db_medium q));
  ]

let run_micro () =
  Fmt.pr "@.=== Bechamel micro-benchmarks (OLS on the monotonic clock) ===@.";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let human ns =
    if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let result = Analyze.one ols Instance.monotonic_clock raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | Some [] | None -> Float.nan
          in
          let r2_text =
            match Analyze.OLS.r_square result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          Fmt.pr "  %-24s %s   (r2 = %s)@." (Test.Elt.name elt)
            (human estimate) r2_text)
        (Test.elements test))
    (micro_tests ())

(* --- CI sanity gate (--e1-sanity) ---

   One timed run of the E1-medium workload on each kernel, the compiled
   answer checked against the strings reference. Exits non-zero on
   disagreement, so the CI kernel-smoke job fails loudly if the kernels
   ever diverge. *)

let e1_sanity () =
  let module Certain = Vardi_certain.Engine in
  let db = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let q = Workloads.mixed_query in
  let timed kernel name =
    ignore (Certain.answer ~kernel db q) (* warm-up *);
    let t0 = Logicaldb.Obs.now_ns () in
    let answer = Certain.answer ~kernel db q in
    Fmt.pr "e1-sanity: kernel %-8s E1-medium %.2f ms@." name
      (Int64.to_float (Int64.sub (Logicaldb.Obs.now_ns ()) t0) /. 1e6);
    answer
  in
  let compiled = timed Certain.Compiled "compiled" in
  let strings = timed Certain.Strings "strings" in
  if not (Vardi_relational.Relation.equal compiled strings) then begin
    Fmt.epr "e1-sanity: kernel compiled disagrees with strings on E1-medium@.";
    exit 1
  end;
  Fmt.pr "e1-sanity: answers agree@."

(* [value_of flag args] is the argument following [flag], if any. *)
let rec value_of flag = function
  | [] | [ _ ] -> None
  | a :: value :: _ when String.equal a flag -> Some value
  | _ :: rest -> value_of flag rest

module Acq = struct
  module L = Logicaldb

  let e i = Printf.sprintf "e%03d" i

  (* Three shifted successor chains over a domain of [n] elements:
     |R| = |S| = |T| = n, so the acyclic strategies are linear in [n]
     while the padded plan pays n^3. *)
  let db n =
    let domain = List.init n e in
    let chain shift =
      L.Relation.of_tuples 2
        (List.init n (fun i -> [ e i; e ((i + shift) mod n) ]))
    in
    L.Database.make
      ~vocabulary:
        (L.Vocabulary.make ~constants:[]
           ~predicates:[ ("R", 2); ("S", 2); ("T", 2) ])
      ~domain ~constants:[]
      ~relations:[ ("R", chain 1); ("S", chain 2); ("T", chain 3) ]

  let path_q =
    L.Parser.query
      "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)"

  let star_q =
    L.Parser.query
      "(h). exists a. exists b. exists c. R(h, a) /\\ S(h, b) /\\ T(h, c)"

  let triangle_q =
    L.Parser.query "(x). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, x)"

  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Fmt.epr "acq-sanity: %s@." msg;
        exit 1)
      fmt

  (* Correctness gates at sizes where the Tarskian evaluator is cheap:
     all four strategies must agree on the acyclic queries, detection
     must actually fire (a fast path that always falls back would
     "win" every benchmark), and the triangle must be rejected as
     cyclic yet still answered correctly by the fallback. *)
  let gate () =
    List.iter
      (fun n ->
        let db = db n in
        List.iter
          (fun (qname, q) ->
            let reference = L.Eval.answer db q in
            (match L.Yannakakis.answer db q with
            | None -> fail "fast path not taken on %s at n=%d" qname n
            | Some fast ->
              if not (L.Relation.equal fast reference) then
                fail "fast path wrong on %s at n=%d" qname n);
            let naive = L.Compile.query db q in
            if not (L.Relation.equal (L.Algebra.run db naive) reference) then
              fail "naive plan wrong on %s at n=%d" qname n;
            if
              not
                (L.Relation.equal
                   (L.Algebra.run db (L.Optimizer.optimize db naive))
                   reference)
            then fail "optimized plan wrong on %s at n=%d" qname n)
          [ ("path", path_q); ("star", star_q) ];
        (match L.Yannakakis.plan db triangle_q with
        | Some _ -> fail "triangle accepted as acyclic at n=%d" n
        | None -> ());
        if
          not
            (L.Relation.equal
               (L.Algebra.run db
                  (L.Optimizer.optimize db (L.Compile.query db triangle_q)))
               (L.Eval.answer db triangle_q))
        then fail "triangle fallback wrong at n=%d" n)
      [ 8; 16 ];
    Fmt.pr "  correctness gates passed (n = 8, 16; path, star, triangle)@."

  (* One size's strategy plans, the fast answer checked against the
     optimized plan's: past the gate sizes the Tarskian evaluator is
     too slow to serve as the reference. *)
  let plans n q qname =
    let db = db n in
    let naive = L.Compile.query db q in
    let optimized = L.Optimizer.optimize db naive in
    let yplan =
      match L.Yannakakis.plan db q with
      | Some p -> p
      | None -> fail "fast path not taken on %s at n=%d" qname n
    in
    let fast_answer = L.Yannakakis.run db yplan in
    if not (L.Relation.equal fast_answer (L.Algebra.run db optimized)) then
      fail "fast and optimized answers diverge on %s at n=%d" qname n;
    (db, naive, yplan)
end

(* CI gate (--acq-sanity [--min-speedup F]): the correctness gates plus
   one wall-clock comparison at n = 64 — the fast path must beat the
   naive padded plan by the required factor (default 5x; the real
   separation is far larger, this floor just keeps CI robust to noisy
   runners). *)
let acq_sanity args =
  let module L = Logicaldb in
  Fmt.pr "=== acq sanity: correctness gates + speedup floor ===@.";
  Acq.gate ();
  let floor =
    match value_of "--min-speedup" args with
    | Some s -> float_of_string s
    | None -> 5.0
  in
  let n = 64 in
  let db, naive, yplan = Acq.plans n Acq.path_q "path" in
  let fast_answer = L.Yannakakis.run db yplan in
  let time f =
    let t0 = Logicaldb.Obs.now_ns () in
    let r = f () in
    (Int64.to_float (Int64.sub (Logicaldb.Obs.now_ns ()) t0) /. 1e9, r)
  in
  let t_naive, naive_answer = time (fun () -> L.Algebra.run db naive) in
  if not (L.Relation.equal naive_answer fast_answer) then begin
    Fmt.epr "acq-sanity: naive and fast answers diverge at n=%d@." n;
    exit 1
  end;
  let runs = 50 in
  let t_fast, () =
    time (fun () ->
        for _ = 1 to runs do
          ignore (L.Yannakakis.run db yplan)
        done)
  in
  let t_fast = t_fast /. float_of_int runs in
  let factor = if t_fast > 0. then t_naive /. t_fast else Float.infinity in
  Fmt.pr "  n=%d: naive %.1f ms, fast %.3f ms — speedup %.1fx (floor %.1fx)@."
    n (t_naive *. 1e3) (t_fast *. 1e3) factor floor;
  if factor < floor then begin
    Fmt.epr "acq-sanity: speedup %.1fx below the %.1fx floor@." factor floor;
    exit 1
  end

(* --- Part 3: per-phase breakdown through the observability layer --- *)

let phase_breakdown () =
  let module Obs = Logicaldb.Obs in
  let module Certain = Vardi_certain.Engine in
  Fmt.pr "@.=== E1-medium per-phase breakdown (Vardi_obs spans) ===@.";
  let db_medium = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let q = Workloads.mixed_query in
  ignore (Certain.answer db_medium q) (* warm-up: plan + minor heap *);
  let buf = Obs.buffer () in
  Obs.with_sink (Obs.buffer_sink buf) (fun () ->
      ignore (Certain.answer ~domains:4 db_medium q));
  let evs = Obs.events buf in
  Obs.pp_spans Fmt.stdout evs;
  Obs.pp_counters Fmt.stdout evs

let rec check_args = function
  | [] -> ()
  | ("--tables-only" | "--micro-only" | "--e1-sanity" | "--acq-sanity")
    :: rest ->
    check_args rest
  | "--min-speedup" :: v :: rest when Float.of_string_opt v <> None ->
    check_args rest
  | _ ->
    Fmt.epr
      "usage: main.exe [--tables-only | --micro-only | --e1-sanity | \
       --acq-sanity [--min-speedup F]]@.";
    exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  check_args args;
  if List.mem "--acq-sanity" args then acq_sanity args
  else if List.mem "--e1-sanity" args then e1_sanity ()
  else begin
    let tables_only = List.mem "--tables-only" args in
    let micro_only = List.mem "--micro-only" args in
    if not micro_only then print_tables ();
    if not tables_only then run_micro ();
    if (not tables_only) && not micro_only then phase_breakdown ();
    Fmt.pr "@.done.@."
  end
