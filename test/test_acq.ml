(* Acyclic-query fast path: GYO reduction, join-tree well-formedness,
   the Yannakakis evaluator's parity with the Tarskian evaluator, and
   the Join/Semijoin algebra operators against a list model. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* GYO reduction on known hypergraphs *)

let path2 = [ [ "x"; "y" ]; [ "y"; "z" ] ]
let path3 = [ [ "x"; "y" ]; [ "y"; "z" ]; [ "z"; "w" ] ]
let star = [ [ "h"; "a" ]; [ "h"; "b" ]; [ "h"; "c" ] ]
let triangle = [ [ "x"; "y" ]; [ "y"; "z" ]; [ "z"; "x" ] ]

let cycle4 =
  [ [ "x"; "y" ]; [ "y"; "z" ]; [ "z"; "w" ]; [ "w"; "x" ] ]

let test_gyo_acyclic () =
  check_bool "single edge" true (Hypergraph.is_acyclic [ [ "x"; "y" ] ]);
  check_bool "path of 2" true (Hypergraph.is_acyclic path2);
  check_bool "path of 3" true (Hypergraph.is_acyclic path3);
  check_bool "star" true (Hypergraph.is_acyclic star);
  check_bool "edge plus subset edge" true
    (Hypergraph.is_acyclic [ [ "x"; "y" ]; [ "x" ] ]);
  check_bool "duplicate edges" true
    (Hypergraph.is_acyclic [ [ "x"; "y" ]; [ "x"; "y" ] ]);
  check_bool "disconnected edges" true
    (Hypergraph.is_acyclic [ [ "x" ]; [ "y" ] ]);
  (* the triangle covered by a 3-ary edge is acyclic again *)
  check_bool "covered triangle" true
    (Hypergraph.is_acyclic (triangle @ [ [ "x"; "y"; "z" ] ]))

let test_gyo_cyclic () =
  check_bool "triangle" false (Hypergraph.is_acyclic triangle);
  check_bool "4-cycle" false (Hypergraph.is_acyclic cycle4);
  check_bool "triangle plus pendant" false
    (Hypergraph.is_acyclic (triangle @ [ [ "x"; "p" ] ]))

(* ------------------------------------------------------------------ *)
(* Join-tree well-formedness: every edge exactly once, and the nodes
   containing any given variable form a connected subtree (the
   running-intersection property). *)

let tree_ids tree =
  Hypergraph.fold (fun acc (n : Hypergraph.tree) -> n.edge :: acc) [] tree

let running_intersection tree =
  (* parent map over edge ids *)
  let parents = Hashtbl.create 16 in
  let rec walk (n : Hypergraph.tree) =
    List.iter
      (fun (c : Hypergraph.tree) ->
        Hashtbl.replace parents c.edge n;
        walk c)
      n.children
  in
  walk tree;
  let nodes =
    Hypergraph.fold (fun acc (n : Hypergraph.tree) -> n :: acc) [] tree
  in
  let vars =
    List.sort_uniq compare (List.concat_map (fun (n : Hypergraph.tree) -> n.vars) nodes)
  in
  List.for_all
    (fun v ->
      let marked =
        List.filter (fun (n : Hypergraph.tree) -> List.mem v n.vars) nodes
      in
      (* a subtree has exactly one marked node whose parent is unmarked *)
      let roots =
        List.filter
          (fun (n : Hypergraph.tree) ->
            match Hashtbl.find_opt parents n.edge with
            | None -> true
            | Some (p : Hypergraph.tree) -> not (List.mem v p.vars))
          marked
      in
      List.length roots = 1)
    vars

let test_join_tree_well_formed () =
  List.iter
    (fun edges ->
      match Hypergraph.join_tree edges with
      | None -> Alcotest.fail "expected acyclic"
      | Some tree ->
        let n = List.length edges in
        check Alcotest.(list int) "covers every edge once"
          (List.init n Fun.id)
          (List.sort compare (tree_ids tree));
        check_bool "running intersection" true (running_intersection tree))
    [
      [ [ "x"; "y" ] ];
      path2;
      path3;
      star;
      [ [ "x"; "y" ]; [ "x" ] ];
      [ [ "x" ]; [ "y" ] ];
      triangle @ [ [ "x"; "y"; "z" ] ];
      [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ]; [ "b"; "e" ]; [ "f" ] ];
    ]

(* ------------------------------------------------------------------ *)
(* Shared database for evaluator tests *)

let vocabulary =
  Vocabulary.make ~constants:[ "a"; "b" ]
    ~predicates:[ ("P", 1); ("R", 2); ("S", 2); ("T", 2) ]

let db =
  Database.make ~vocabulary
    ~domain:[ "a"; "b"; "c"; "d" ]
    ~constants:[ ("a", "a"); ("b", "b") ]
    ~relations:
      [
        ("P", Relation.of_tuples 1 [ [ "a" ]; [ "c" ] ]);
        ( "R",
          Relation.of_tuples 2
            [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ]; [ "a"; "a" ] ] );
        ( "S",
          Relation.of_tuples 2 [ [ "b"; "c" ]; [ "c"; "a" ]; [ "d"; "d" ] ] );
        ("T", Relation.of_tuples 2 [ [ "c"; "a" ]; [ "d"; "b" ] ]);
      ]

let q s = Logicaldb.query s

(* ------------------------------------------------------------------ *)
(* Semijoin-pass idempotence: running the full reducer a second time
   changes nothing. *)

let test_reducer_idempotent () =
  let query = q "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)" in
  match Yannakakis.plan db query with
  | None -> Alcotest.fail "path CQ should be detected"
  | Some p ->
    let tree = Option.get p.Yannakakis.tree in
    let rels () =
      Array.map
        (fun (a : Yannakakis.atom) ->
          {
            Yannakakis.Internal.vars = Term.vars_of a.args;
            rel = Database.relation db a.pred;
          })
        p.Yannakakis.atoms
    in
    let once = rels () in
    Yannakakis.Internal.reducer_passes once tree;
    let twice = Array.map (fun nr -> nr) once in
    Yannakakis.Internal.reducer_passes twice tree;
    Array.iteri
      (fun i (nr : Yannakakis.Internal.nrel) ->
        check Support.relation_testable
          (Printf.sprintf "atom %d stable" i)
          nr.rel twice.(i).rel)
      once

(* ------------------------------------------------------------------ *)
(* Yannakakis vs the Tarskian evaluator on fixed queries *)

let expect_fast query =
  match Yannakakis.answer db query with
  | None -> Alcotest.fail ("fast path refused: " ^ Pretty.query_to_string query)
  | Some r ->
    check Support.relation_testable
      (Pretty.query_to_string query)
      (Eval.answer db query) r

let expect_fallback query =
  check_bool
    ("fallback expected: " ^ Pretty.query_to_string query)
    true
    (Yannakakis.answer db query = None)

let test_parity_fixed () =
  expect_fast (q "(x, z). exists y. R(x, y) /\\ S(y, z)");
  expect_fast (q "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)");
  expect_fast (q "(h). exists x. exists y. R(h, x) /\\ S(h, y) /\\ P(h)");
  expect_fast (q "(x). R(x, x)");
  expect_fast (q "(x, y). R(x, y)");
  expect_fast (q "(). exists x. exists y. R(x, y) /\\ P(x)");
  (* disconnected conjuncts: cartesian product across tree pieces *)
  expect_fast (q "(x, y). P(x) /\\ (exists z. S(y, z))");
  (* constants inside atoms *)
  expect_fast (Query.make [ "x" ] (Formula.atom "R" [ Term.var "x"; Term.const "b" ]));
  (* ground guard atom *)
  expect_fast
    (Query.make [ "x" ]
       (Formula.and_
          (Formula.atom "P" [ Term.var "x" ])
          (Formula.atom "R" [ Term.const "a"; Term.const "b" ])));
  (* boolean query, no variable atoms at all *)
  expect_fast
    (Query.make []
       (Formula.atom "R" [ Term.const "a"; Term.const "b" ]));
  expect_fast (Query.boolean Formula.True)

let test_fallback_fixed () =
  (* cyclic *)
  expect_fallback
    (q "(x). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, x)");
  (* not conjunctive *)
  expect_fallback (q "(x). P(x) \\/ (exists y. R(x, y))");
  expect_fallback (q "(x). ~P(x)");
  expect_fallback (q "(x). forall y. R(x, y)");
  expect_fallback (q "(x, y). R(x, y) /\\ x = y");
  (* head variable in no atom *)
  expect_fallback (q "(x). exists y. P(y)");
  (* unknown predicate / wrong arity: errors stay on the naive path *)
  expect_fallback (Query.make [ "x" ] (Formula.atom "Q" [ Term.var "x" ]));
  expect_fallback (Query.make [ "x" ] (Formula.atom "P" [ Term.var "x"; Term.var "x" ]));
  (* unknown constant *)
  expect_fallback
    (Query.make [ "x" ] (Formula.atom "R" [ Term.var "x"; Term.const "zz" ]))

(* A compiled conjunctive plan picks up Join/Semijoin nodes through the
   optimizer — the plan-level half of the fast path. *)
let rec has_join = function
  | Algebra.Join _ | Algebra.Semijoin _ -> true
  | Algebra.Base _ | Algebra.Virtual _ | Algebra.Domain | Algebra.Empty _ ->
    false
  | Algebra.Select (_, e) | Algebra.Project (_, e) -> has_join e
  | Algebra.Product (a, b)
  | Algebra.Union (a, b)
  | Algebra.Inter (a, b)
  | Algebra.Diff (a, b) -> has_join a || has_join b

let test_optimizer_fuses_conjunctions () =
  let query = q "(x). exists y. R(x, y) /\\ P(y)" in
  let plan = Optimizer.optimize db (Compile.query db query) in
  check_bool "optimized plan contains a join" true (has_join plan);
  check Support.relation_testable "fused plan agrees with Eval"
    (Eval.answer db query) (Algebra.run db plan);
  let path = q "(x, z). exists y. R(x, y) /\\ S(y, z)" in
  let plan = Optimizer.optimize db (Compile.query db path) in
  check_bool "path plan contains a join" true (has_join plan);
  check Support.relation_testable "path plan agrees with Eval"
    (Eval.answer db path) (Algebra.run db plan)

(* ------------------------------------------------------------------ *)
(* QCheck: Join/Semijoin vs the list model *)

let gen_join_case =
  let open QCheck2.Gen in
  let elements = [ "a"; "b"; "c" ] in
  let* ka = int_range 1 3 and* kb = int_range 1 3 in
  let gen_tuple k = list_repeat k (oneofl elements) in
  let* ta = list_size (int_bound 8) (gen_tuple ka)
  and* tb = list_size (int_bound 8) (gen_tuple kb) in
  let* pairs =
    list_size (int_bound 2) (pair (int_bound (ka - 1)) (int_bound (kb - 1)))
  in
  return (ka, kb, ta, tb, pairs)

let join_case_db ka kb ta tb =
  let vocabulary =
    Vocabulary.make ~constants:[] ~predicates:[ ("A", ka); ("B", kb) ]
  in
  Database.make ~vocabulary ~domain:[ "a"; "b"; "c" ] ~constants:[]
    ~relations:
      [ ("A", Relation.of_tuples ka ta); ("B", Relation.of_tuples kb tb) ]

let matches pairs u v =
  List.for_all (fun (i, j) -> List.nth u i = List.nth v j) pairs

let join_vs_list_model =
  QCheck2.Test.make ~count:300 ~name:"Join = list model"
    gen_join_case
    (fun (ka, kb, ta, tb, pairs) ->
      let db = join_case_db ka kb ta tb in
      let expect =
        Relation.of_tuples (ka + kb)
          (List.concat_map
             (fun u ->
               List.filter_map
                 (fun v -> if matches pairs u v then Some (u @ v) else None)
                 tb)
             ta)
      in
      Relation.equal expect
        (Algebra.run db (Algebra.Join (pairs, Algebra.Base "A", Algebra.Base "B"))))

let semijoin_vs_list_model =
  QCheck2.Test.make ~count:300 ~name:"Semijoin = list model"
    gen_join_case
    (fun (ka, kb, ta, tb, pairs) ->
      let db = join_case_db ka kb ta tb in
      let expect =
        Relation.of_tuples ka
          (List.filter (fun u -> List.exists (matches pairs u) tb) ta)
      in
      Relation.equal expect
        (Algebra.run db
           (Algebra.Semijoin (pairs, Algebra.Base "A", Algebra.Base "B"))))

(* The interned plans' Join/Semijoin ([Iplan], the compiled kernel's
   fallback for unpackable plans) agree with the string kernel (on the
   discrete structure of a CW database, where the interned plans
   run). *)
let interned_join_parity =
  QCheck2.Test.make ~count:300 ~name:"interned Join/Semijoin = strings"
    gen_join_case
    (fun (ka, kb, ta, tb, pairs) ->
      let vocabulary =
        Vocabulary.make ~constants:[ "a"; "b"; "c" ]
          ~predicates:[ ("A", ka); ("B", kb) ]
      in
      let cw =
        Cw_database.make ~vocabulary
          ~facts:
            (List.map (fun args -> { Cw_database.pred = "A"; args }) ta
            @ List.map (fun args -> { Cw_database.pred = "B"; args }) tb)
          ~distinct:[]
      in
      let db = Ph.ph1 cw in
      let scan = Iscan.prepare cw in
      let tab = Iscan.symtab scan in
      let idb = (Iscan.discrete scan).Iscan.idb in
      List.for_all
        (fun expr ->
          match Iplan.of_algebra tab expr with
          | None -> false
          | Some plan ->
            Relation.equal (Algebra.run db expr)
              (Irel.to_relation tab (Iplan.run idb plan)))
        [
          Algebra.Join (pairs, Algebra.Base "A", Algebra.Base "B");
          Algebra.Semijoin (pairs, Algebra.Base "A", Algebra.Base "B");
        ])

(* QCheck: fast-path answers equal Eval answers on random queries; the
   fallback branch is "true" by construction and exercised by the
   acq-parity fuzz oracle. *)
let yannakakis_parity =
  QCheck2.Test.make ~count:250 ~name:"Yannakakis = Eval on random queries"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (cw, query) ->
      let pb = Ph.ph1 cw in
      match Yannakakis.answer pb query with
      | None -> true
      | Some r -> Relation.equal r (Eval.answer pb query))

let suite =
  [
    Alcotest.test_case "GYO accepts acyclic hypergraphs" `Quick
      test_gyo_acyclic;
    Alcotest.test_case "GYO rejects cyclic hypergraphs" `Quick test_gyo_cyclic;
    Alcotest.test_case "join trees are well-formed" `Quick
      test_join_tree_well_formed;
    Alcotest.test_case "semijoin passes are idempotent" `Quick
      test_reducer_idempotent;
    Alcotest.test_case "fast path = Eval on fixed queries" `Quick
      test_parity_fixed;
    Alcotest.test_case "ineligible queries fall back" `Quick
      test_fallback_fixed;
    Alcotest.test_case "optimizer fuses conjunctions to joins" `Quick
      test_optimizer_fuses_conjunctions;
    Support.qcheck_case join_vs_list_model;
    Support.qcheck_case semijoin_vs_list_model;
    Support.qcheck_case interned_join_parity;
    Support.qcheck_case yannakakis_parity;
  ]
