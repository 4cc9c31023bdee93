module Formula = Vardi_logic.Formula
module Query = Vardi_logic.Query
module Vocabulary = Vardi_logic.Vocabulary
module Relation = Vardi_relational.Relation
module Database = Vardi_relational.Database
module Eval = Vardi_relational.Eval
module Algebra = Vardi_relational.Algebra
module Compile = Vardi_relational.Compile
module Cw_database = Vardi_cwdb.Cw_database
module Mapping = Vardi_cwdb.Mapping
module Partition = Vardi_cwdb.Partition
module Ph = Vardi_cwdb.Ph
module Obs = Vardi_obs.Obs
module Symtab = Vardi_interned.Symtab
module Irel = Vardi_interned.Irel
module Iplan = Vardi_interned.Iplan
module Iscan = Vardi_interned.Iscan
module Icode = Vardi_interned.Icode

type algorithm =
  | Naive_mappings
  | Kernel_partitions

type kernel =
  | Strings
  | Compiled

type order = Vardi_cwdb.Partition.order =
  | Fresh_first
  | Merge_first

type stats = {
  structures : int;
  evaluations : int;
  early_exit : bool;
  pruned_candidates : int;
  wall_ns : int64;
  domains_used : int;
  interrupted : Cancel.reason option;
}

let validate = Vardi_cwdb.Query_check.validate
let validate_tuple = Vardi_cwdb.Query_check.validate_tuple

(* The process-monotonic clock Obs maintains (gettimeofday clamped to
   be non-decreasing), so [wall_ns] intervals can never go negative
   under clock adjustment. *)
let now_ns = Obs.now_ns

(* Every examined structure is an image database together with the
   element renaming that produced it, so a candidate tuple [c] over [C]
   is checked as [h(c) ∈ Q(h(Ph₁))]. *)
type structure = {
  image : Vardi_relational.Database.t;
  rename : string -> string;
}

(* The structure stream is handed out as construction thunks: the
   enumeration step (next partition / next mapping) runs in the
   scheduler's critical section, while the quotient / image-database
   construction — the expensive part — runs in whichever worker domain
   claimed the item. *)
let structure_thunks algorithm order lb =
  match algorithm with
  | Naive_mappings ->
    Seq.map
      (fun h () -> { image = Mapping.image_db h; rename = Mapping.apply h })
      (Mapping.all_respecting lb)
  | Kernel_partitions ->
    Seq.map
      (fun p () ->
        { image = Partition.quotient p; rename = Partition.representative p })
      (Partition.all_valid ~order lb)

let discrete_structure lb =
  (* The discrete partition's quotient is Ph₁ itself (the identity
     renaming), so no partition machinery is needed to build it. *)
  { image = Ph.ph1 lb; rename = Fun.id }

(* The interned mirror of [structure_thunks]: same enumeration orders,
   same deferred-construction split (see Iscan). *)
let interned_thunks algorithm order plan =
  match algorithm with
  | Naive_mappings -> Iscan.mapping_thunks plan
  | Kernel_partitions -> Iscan.structure_thunks ~order plan

(* A pluggable interned structure stream. The engine's scans only need
   three things from a plan: its symtab, its structure stream per
   (algorithm, order), and its discrete seed — so they are bundled
   here, letting an incremental session substitute cached structures
   for stream positions (see Vardi_incr.Session) while the engine's
   scheduling, budget and stats machinery stays oblivious. The
   positional contract carries over: [source_thunks alg ord] must
   enumerate the same renaming at every position as the fresh plan's
   stream would. *)
type scan_source = {
  source_plan : Iscan.plan;
  source_thunks : algorithm -> order -> (unit -> Iscan.structure) Seq.t;
  source_discrete : unit -> Iscan.structure;
}

let source_of_plan plan =
  {
    source_plan = plan;
    source_thunks = (fun algorithm order -> interned_thunks algorithm order plan);
    source_discrete = (fun () -> Iscan.discrete plan);
  }

let rename_row (rename : int array) (row : int array) =
  Array.map (fun c -> Array.unsafe_get rename c) row

(* With [Fresh_first] kernel enumeration the discrete partition is the
   stream's first element; entry points that evaluate it separately as
   a pruning seed drop it from the stream instead of paying for it
   twice. Other algorithm/order combinations revisit it somewhere in
   the middle of the stream, which is sound (its filter is a no-op) and
   costs one extra evaluation. *)
let rest_after_discrete algorithm order thunks =
  match (algorithm, order) with
  | Kernel_partitions, Fresh_first -> Seq.drop 1 thunks
  | Kernel_partitions, Merge_first | Naive_mappings, _ -> thunks

(* --- budget cooperation ------------------------------------------- *)

(* The structure/evaluation caps of a cancellation token truncate the
   structure stream *by position*: the scan admits exactly the first
   [cap] structures of the enumeration order, in every schedule, and
   the token trips only when the enumeration would have continued past
   the cap. Cap trips therefore never halt the in-flight prefix — that
   is what makes the capped verdict and the [structures] stat
   deterministic across worker-domain counts (see Cancel). [spent] is
   the work already charged to the budget before the scan starts (the
   discrete-structure seed of the whole-answer entry points). *)
let admit_within cancel ~structures ~evaluations thunks =
  match cancel with
  | None -> thunks
  | Some token -> (
    match Cancel.scan_cap token ~structures ~evaluations with
    | None -> thunks
    | Some (cap, reason) ->
      let rec admit n seq () =
        if n <= 0 then (
          match seq () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons _ ->
            (* Work remained beyond the cap: the budget genuinely
               binds. The enumeration step just forced is cheap — the
               expensive quotient lives in the unforced thunk. *)
            Cancel.trip token reason;
            Seq.Nil)
        else
          match seq () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons (x, rest) -> Seq.Cons (x, admit (n - 1) rest)
      in
      admit cap thunks)

(* Deadline cooperation: checked before every structure in whichever
   domain is about to pay for it, so all workers stop within one
   structure evaluation of the deadline passing. Also the
   fault-injection hook — Cancel.check runs the token's probe. *)
let deadline_passed = function
  | None -> false
  | Some token -> Cancel.check token

(* A trip is reported only when the scan was not decided: a decision
   (countermodel, witness, emptied survivor set) reached inside the
   admitted prefix is exact, whatever the token says. *)
let interruption cancel ~decided =
  match cancel with
  | Some token when not decided -> Cancel.tripped token
  | Some _ | None -> None

(* --- parallel scheduler ------------------------------------------- *)

(* Worker-domain count: the caller's [?domains] is a cap on
   [Domain.recommended_domain_count]. An explicit request above 1 is
   always honored with at least two real domains so the parallel path
   stays exercised (and testable) on single-core hosts. *)
let worker_count requested =
  if requested <= 1 then 1
  else min requested (max 2 (Domain.recommended_domain_count ()))

let chunk_size = 8

type 'a puller = {
  lock : Mutex.t;
  mutable source : 'a Seq.t;
}

let puller seq = { lock = Mutex.create (); source = seq }

(* Claim up to [chunk_size] items (order within a chunk is
   irrelevant — every consumer is commutative). Forcing the sequence
   happens only here, under the lock, so the enumerator state is never
   raced. *)
let next_chunk p =
  Mutex.lock p.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.lock)
    (fun () ->
      let rec take n acc seq =
        if n = 0 then (acc, seq)
        else
          match seq () with
          | Seq.Nil -> (acc, Seq.empty)
          | Seq.Cons (x, rest) -> take (n - 1) (x :: acc) rest
      in
      let chunk, rest = take chunk_size [] p.source in
      p.source <- rest;
      chunk)

(* Drive [consume] over every thunk of [thunks] across worker domains,
   stopping as soon as [stop] reports the computation decided. Returns
   the number of structures examined. The first worker exception is
   re-raised in the calling domain. *)
let drive ~domains ~cancel ~stop consume thunks =
  let workers = worker_count domains in
  let examined = Atomic.make 0 in
  let failure = Atomic.make None in
  let p = puller thunks in
  (* Captured on the calling domain so the chunk spans of spawned
     workers (whose own span stack is empty) nest under the entry
     point's span rather than floating as roots. *)
  let scan_span = Obs.current_span_id () in
  let halted () =
    stop () || Atomic.get failure <> None || deadline_passed cancel
  in
  let rec drain () =
    if not (halted ()) then
      match next_chunk p with
      | [] -> ()
      | chunk ->
        (* One span per claimed chunk, opened in the worker domain that
           processes it; the per-chunk counters make the engine's work
           attributable per domain without any hot-loop cost when no
           sink is installed. *)
        Obs.span ?parent:scan_span "certain.chunk" (fun () ->
            let processed = ref 0 in
            List.iter
              (fun thunk ->
                if not (halted ()) then begin
                  Atomic.incr examined;
                  incr processed;
                  consume (thunk ())
                end)
              chunk;
            if Obs.enabled () && !processed > 0 then begin
              Obs.count "certain.structures" !processed;
              Obs.count "certain.evaluations" !processed
            end);
        drain ()
  in
  (* An interrupt must win over a parked worker fault (Ctrl-C is never
     mistaken for a scan failure), and any other exception only fills
     an empty slot so the first fault is the one re-raised. *)
  let park = function
    | Sys.Break -> Atomic.set failure (Some Sys.Break)
    | e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  let guarded () = try drain () with e -> park e in
  (* Spawn/join edges go through the shared SIGINT-masked helper
     (Domain_guard): the drain in between stays interruptible, and any
     exception is parked, which flips [halted] so workers stop at
     their next poll and the joins are short. *)
  let spawned =
    if workers > 1 then Domain_guard.spawn_list ~park (workers - 1) guarded
    else []
  in
  (try guarded () with e -> park e);
  if spawned <> [] then Domain_guard.join_list ~park spawned;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  Atomic.get examined

(* Quantification over structures: search for one whose [check] equals
   [target] ([target = false] refutes a universal, [target = true]
   witnesses an existential), with an atomic early-exit flag shared by
   all workers. [started] is when the entry point began, so [wall_ns]
   also covers the preparation that precedes the scan. *)
let search ~started ~domains ~cancel ~target thunks check =
  let found = Atomic.make false in
  let examined =
    drive ~domains ~cancel
      ~stop:(fun () -> Atomic.get found)
      (fun s -> if Bool.equal (check s) target then Atomic.set found true)
      (admit_within cancel ~structures:0 ~evaluations:0 thunks)
  in
  let found = Atomic.get found in
  Obs.count "certain.early_exit" (if found then 1 else 0);
  ( found,
    {
      structures = examined;
      evaluations = examined;
      early_exit = found;
      pruned_candidates = 0;
      wall_ns = Int64.sub (now_ns ()) started;
      domains_used = worker_count domains;
      interrupted = interruption cancel ~decided:found;
    } )

(* --- per-query preparation ------------------------------------------ *)

(* Per-query work hoisted out of the per-structure loop: one NNF pass,
   one compilation to relational algebra, one optimizer pass. The plan
   resolves base relations and constant symbols at run time, so it is
   evaluated against every image database without recompilation.
   Queries outside the algebra (second-order quantifiers) fall back to
   direct Tarskian evaluation — still hoisting everything there is to
   hoist, since [Eval.answer] keeps no per-query state. *)
let prepare_answer lb q =
  match Compile.prepared (Ph.ph1 lb) q with
  | Some plan -> fun s -> Algebra.run s.image plan
  | None -> fun s -> Eval.answer s.image q

(* The compiled mirror of [prepare_answer]: the algebra plan is interned
   once against the scan's symtab ([Iplan]) and compiled to a packed
   instruction program ([Icode]), so per-structure evaluation touches no
   strings at all; queries the algebra cannot express compile to a
   register-machine enumerator. The second component is the packed
   survivor-filter probe: it tests membership in a structure's image
   answer without unpacking it into rows ([Icode.exec_member]). *)
let prepare_answer_compiled lb tab q =
  match
    Option.bind (Compile.prepared (Ph.ph1 lb) q) (Iplan.of_algebra tab)
  with
  | Some iplan ->
    let prog = Icode.compile_plan tab iplan in
    ( (fun (s : Iscan.structure) -> Icode.exec s.idb prog),
      Some
        (fun (s : Iscan.structure) ->
          Icode.exec_member s.idb prog ~rename:s.rename) )
  | None ->
    let ca = Icode.compile_answer tab q in
    ((fun (s : Iscan.structure) -> Icode.run_answer s.idb ca), None)

let prepare_check_compiled tab q =
  let cs = Icode.compile_sentence tab (Query.body q) in
  fun (s : Iscan.structure) -> Icode.run_sentence s.idb cs

(* A [prepared] bundles everything per-(database, query, kernel) that a
   scan needs besides the structures themselves: for [Compiled], the
   interned database ([Iscan.prepare] — symtab, coded facts, per-depth
   buckets) behind a [scan_source], and the compiled per-structure
   evaluator — the image-answer program for relational queries, the
   sentence check for Boolean ones. All pieces are immutable after
   preparation, so one prepared query can serve any number of
   concurrent scans — the serve layer's plan cache counts on it. A
   runner asked for the evaluator a query was not prepared for (the
   whole answer of a Boolean query) compiles it on the fly. *)
type prepared = {
  p_lb : Cw_database.t;
  p_query : Query.t;
  p_impl : prepared_impl;
}

and prepared_impl =
  | Prepared_strings of (structure -> Relation.t) option
  | Prepared_compiled of compiled

and compiled = {
  c_source : scan_source;
  c_answer : (Iscan.structure -> Irel.t) option;
  c_probe : (Iscan.structure -> int array -> bool) option;
  c_check : (Iscan.structure -> bool) option;
}

(* [relational] selects the evaluator: the image answer (whole-answer
   runners) or the sentence check (Boolean deciders). A [wrap_answer]
   (a session's memo) must observe every image, so it drops the packed
   probe in favour of the materializing closure it wraps. *)
let compiled ~source ?wrap_answer ?wrap_check ~relational lb q =
  let tab = Iscan.symtab source.source_plan in
  let wrap w f = match w with Some w -> w f | None -> f in
  if relational then
    let image, probe = prepare_answer_compiled lb tab q in
    {
      c_source = source;
      c_answer = Some (wrap wrap_answer image);
      c_probe = (if Option.is_some wrap_answer then None else probe);
      c_check = None;
    }
  else
    {
      c_source = source;
      c_answer = None;
      c_probe = None;
      c_check = Some (wrap wrap_check (prepare_check_compiled tab q));
    }

let prepare_unchecked ~kernel ~relational lb q =
  Obs.span "certain.prepare" (fun () ->
      let impl =
        match kernel with
        | Strings ->
          Prepared_strings
            (if relational then Some (prepare_answer lb q) else None)
        | Compiled ->
          Prepared_compiled
            (compiled
               ~source:(source_of_plan (Iscan.prepare lb))
               ~relational lb q)
      in
      { p_lb = lb; p_query = q; p_impl = impl })

let prepare ?(kernel = Compiled) lb q =
  validate lb q;
  prepare_unchecked ~kernel ~relational:(not (Query.is_boolean q)) lb q

let prepare_with ~source ?wrap_answer ?wrap_check lb q =
  validate lb q;
  Obs.span "certain.prepare" (fun () ->
      {
        p_lb = lb;
        p_query = q;
        p_impl =
          Prepared_compiled
            (compiled ~source ?wrap_answer ?wrap_check
               ~relational:(not (Query.is_boolean q)) lb q);
      })

let prepared_db p = p.p_lb
let prepared_query p = p.p_query

let prepared_kernel p =
  match p.p_impl with
  | Prepared_strings _ -> Strings
  | Prepared_compiled _ -> Compiled

let strings_answer p = function
  | Some f -> f
  | None ->
    Obs.span "certain.prepare" (fun () -> prepare_answer p.p_lb p.p_query)

let compiled_answer p c =
  match c.c_answer with
  | Some f -> (f, c.c_probe)
  | None ->
    Obs.span "certain.prepare" (fun () ->
        prepare_answer_compiled p.p_lb
          (Iscan.symtab c.c_source.source_plan)
          p.p_query)

(* --- whole-answer runners ------------------------------------------- *)

(* [|C|^k], saturating at [max_int] — only used for the
   pruned-candidates counter, never for enumeration. *)
let candidate_count lb k =
  let n = List.length (Cw_database.constants lb) in
  let rec go acc i =
    if i = 0 then acc
    else if n <> 0 && acc > max_int / n then max_int
    else go (acc * n) (i - 1)
  in
  go 1 k

(* The relation operations the whole-answer scans need, so one survivor
   loop serves both kernels' representations: [Relation.t] over
   constant names, or [Irel.t] over codes (converted back to names only
   for the result). *)
type ('rel, 'row) rel_ops = {
  cardinal : 'rel -> int;
  is_empty : 'rel -> bool;
  diff : 'rel -> 'rel -> 'rel;
  union : 'rel -> 'rel -> 'rel;
  filter : ('row -> bool) -> 'rel -> 'rel;
  to_relation : 'rel -> Relation.t;
}

let strings_ops =
  {
    cardinal = Relation.cardinal;
    is_empty = Relation.is_empty;
    diff = Relation.diff;
    union = Relation.union;
    filter = Relation.filter;
    to_relation = Fun.id;
  }

let interned_ops tab =
  {
    cardinal = Irel.cardinal;
    is_empty = Irel.is_empty;
    diff = Irel.diff;
    union = Irel.union;
    filter = Irel.filter;
    to_relation = Irel.to_relation tab;
  }

(* Both scans start from the discrete structure (Ph₁ under the identity
   renaming — always a valid structure), evaluated once as the seed. *)
let seed_span seed =
  Obs.span "certain.seed" (fun () ->
      let seed = seed () in
      Obs.count "certain.structures" 1;
      Obs.count "certain.evaluations" 1;
      seed)

let update cell f =
  let rec loop () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (f cur)) then loop ()
  in
  loop ()

(* [member s] tests a candidate row against structure [s]'s image
   answer under [s]'s renaming. Pruning: the certain answer is contained
   in the answer over every structure, in particular the discrete one,
   so seeding the survivor set from it replaces the full |C|^k candidate
   relation. *)
let answer_scan ops ~started ~algorithm ~order ~domains ~cancel ~seed ~member
    lb q thunks =
  let seed = seed_span seed in
  let pruned = candidate_count lb (Query.arity q) - ops.cardinal seed in
  Obs.count "certain.pruned" pruned;
  let survivors = Atomic.make seed in
  let consume s =
    let mem_row = member s in
    let doomed = ops.filter (fun row -> not (mem_row row)) (Atomic.get survivors) in
    if not (ops.is_empty doomed) then
      update survivors (fun cur -> ops.diff cur doomed)
  in
  let examined =
    drive ~domains ~cancel
      ~stop:(fun () -> ops.is_empty (Atomic.get survivors))
      consume
      (admit_within cancel ~structures:1 ~evaluations:1
         (rest_after_discrete algorithm order thunks))
  in
  let result = Atomic.get survivors in
  let early = ops.is_empty result in
  Obs.count "certain.early_exit" (if early then 1 else 0);
  ( ops.to_relation result,
    {
      structures = examined + 1;
      evaluations = examined + 1;
      early_exit = early;
      pruned_candidates = pruned;
      wall_ns = Int64.sub (now_ns ()) started;
      domains_used = worker_count domains;
      interrupted = interruption cancel ~decided:early;
    } )

(* The candidate relation is built once (not per structure); the
   discrete structure seeds the found set — every tuple it answers is
   witnessed and needs no further search. *)
let possible_scan ops ~started ~algorithm ~order ~domains ~cancel
    ~all_candidates ~seed ~member thunks =
  let total = ops.cardinal all_candidates in
  let seed = seed_span seed in
  Obs.count "certain.pruned" (ops.cardinal seed);
  let found = Atomic.make seed in
  let saturated () = ops.cardinal (Atomic.get found) >= total in
  let consume s =
    let mem_row = member s in
    let remaining = ops.diff all_candidates (Atomic.get found) in
    let gained = ops.filter mem_row remaining in
    if not (ops.is_empty gained) then
      update found (fun cur -> ops.union cur gained)
  in
  let examined =
    drive ~domains ~cancel ~stop:saturated consume
      (admit_within cancel ~structures:1 ~evaluations:1
         (rest_after_discrete algorithm order thunks))
  in
  let result = Atomic.get found in
  let early = ops.cardinal result >= total in
  Obs.count "certain.early_exit" (if early then 1 else 0);
  ( ops.to_relation result,
    {
      structures = examined + 1;
      evaluations = examined + 1;
      early_exit = early;
      pruned_candidates = ops.cardinal seed;
      wall_ns = Int64.sub (now_ns ()) started;
      domains_used = worker_count domains;
      interrupted = interruption cancel ~decided:early;
    } )

let strings_member image_answer s =
  let ia = image_answer s in
  fun tuple -> Relation.mem (List.map s.rename tuple) ia

(* A packed probe tests a row without materializing the image answer;
   otherwise the image answer is built and searched. *)
let compiled_member image_answer probe (s : Iscan.structure) =
  match probe with
  | Some probe -> probe s
  | None ->
    let ia = image_answer s in
    fun row -> Irel.mem (rename_row s.rename row) ia

(* The whole-answer runners: one scan per relation representation, the
   kernel fixed at preparation. *)
let run_answer ~started ~algorithm ~order ~domains ~cancel p =
  match p.p_impl with
  | Prepared_strings ia ->
    let image_answer = strings_answer p ia in
    answer_scan strings_ops ~started ~algorithm ~order ~domains ~cancel
      ~seed:(fun () -> image_answer (discrete_structure p.p_lb))
      ~member:(strings_member image_answer) p.p_lb p.p_query
      (structure_thunks algorithm order p.p_lb)
  | Prepared_compiled c ->
    let image_answer, probe = compiled_answer p c in
    answer_scan
      (interned_ops (Iscan.symtab c.c_source.source_plan))
      ~started ~algorithm ~order ~domains ~cancel
      ~seed:(fun () -> image_answer (c.c_source.source_discrete ()))
      ~member:(compiled_member image_answer probe)
      p.p_lb p.p_query
      (c.c_source.source_thunks algorithm order)

let run_possible_answer ~started ~algorithm ~order ~domains ~cancel p =
  let k = Query.arity p.p_query in
  match p.p_impl with
  | Prepared_strings ia ->
    let image_answer = strings_answer p ia in
    possible_scan strings_ops ~started ~algorithm ~order ~domains ~cancel
      ~all_candidates:
        (Relation.full ~domain:(Cw_database.constants p.p_lb) k)
      ~seed:(fun () -> image_answer (discrete_structure p.p_lb))
      ~member:(strings_member image_answer)
      (structure_thunks algorithm order p.p_lb)
  | Prepared_compiled c ->
    let image_answer, probe = compiled_answer p c in
    let tab = Iscan.symtab c.c_source.source_plan in
    (* Same cap, same message as [Relation.full] on the string side. *)
    possible_scan (interned_ops tab) ~started ~algorithm ~order ~domains
      ~cancel
      ~all_candidates:
        (Irel.full ~domain:(Array.init (Symtab.size tab) Fun.id) k)
      ~seed:(fun () -> image_answer (c.c_source.source_discrete ()))
      ~member:(compiled_member image_answer probe)
      (c.c_source.source_thunks algorithm order)

let run_boolean ~started ~target ~algorithm ~order ~domains ~cancel p =
  match p.p_impl with
  | Prepared_strings _ ->
    let body = Query.body p.p_query in
    search ~started ~domains ~cancel ~target
      (structure_thunks algorithm order p.p_lb)
      (fun s -> Eval.satisfies s.image body)
  | Prepared_compiled c ->
    let check =
      match c.c_check with
      | Some check -> check
      | None ->
        prepare_check_compiled (Iscan.symtab c.c_source.source_plan) p.p_query
    in
    search ~started ~domains ~cancel ~target
      (c.c_source.source_thunks algorithm order)
      check

(* --- whole-answer and Boolean entry points -------------------------- *)

(* Every entry point below is a preparation followed by a runner; the
   unprepared ones prepare inside their own span, so the span tree and
   [wall_ns] cover the whole call either way. *)
let timed ~span run prepared =
  Obs.span span (fun () ->
      let started = now_ns () in
      run ~started (prepared ()))

let answer_stats ?(algorithm = Kernel_partitions) ?(order = Fresh_first)
    ?(domains = 1) ?cancel ?(kernel = Compiled) lb q =
  validate lb q;
  timed ~span:"certain.answer"
    (run_answer ~algorithm ~order ~domains ~cancel)
    (fun () -> prepare_unchecked ~kernel ~relational:true lb q)

let answer ?algorithm ?order ?domains ?cancel ?kernel lb q =
  fst (answer_stats ?algorithm ?order ?domains ?cancel ?kernel lb q)

let prepared_answer_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel p =
  timed ~span:"certain.answer"
    (run_answer ~algorithm ~order ~domains ~cancel)
    (fun () -> p)

let possible_answer_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel ?(kernel = Compiled) lb q =
  validate lb q;
  timed ~span:"certain.possible_answer"
    (run_possible_answer ~algorithm ~order ~domains ~cancel)
    (fun () -> prepare_unchecked ~kernel ~relational:true lb q)

let possible_answer ?algorithm ?order ?domains ?cancel ?kernel lb q =
  fst (possible_answer_stats ?algorithm ?order ?domains ?cancel ?kernel lb q)

let prepared_possible_answer_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel p =
  timed ~span:"certain.possible_answer"
    (run_possible_answer ~algorithm ~order ~domains ~cancel)
    (fun () -> p)

let boolean_stats ~target ~span ~name ~algorithm ~order ~domains ~cancel q
    prepared =
  if not (Query.is_boolean q) then
    invalid_arg
      (Printf.sprintf "Certain.%s: the query has answer variables" name);
  timed ~span
    (run_boolean ~target ~algorithm ~order ~domains ~cancel)
    prepared

let certain_boolean_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel ?(kernel = Compiled) lb q =
  validate lb q;
  let refuted, stats =
    boolean_stats ~target:false ~span:"certain.boolean" ~name:"certain_boolean"
      ~algorithm ~order ~domains ~cancel q (fun () ->
        prepare_unchecked ~kernel ~relational:false lb q)
  in
  (not refuted, stats)

let certain_boolean ?algorithm ?order ?domains ?cancel ?kernel lb q =
  fst (certain_boolean_stats ?algorithm ?order ?domains ?cancel ?kernel lb q)

let possible_boolean_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel ?(kernel = Compiled) lb q =
  validate lb q;
  boolean_stats ~target:true ~span:"certain.possible_boolean"
    ~name:"possible_boolean" ~algorithm ~order ~domains ~cancel q (fun () ->
      prepare_unchecked ~kernel ~relational:false lb q)

let possible_boolean ?algorithm ?order ?domains ?cancel ?kernel lb q =
  fst (possible_boolean_stats ?algorithm ?order ?domains ?cancel ?kernel lb q)

let prepared_certain_boolean_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel p =
  let refuted, stats =
    boolean_stats ~target:false ~span:"certain.boolean"
      ~name:"prepared_certain_boolean" ~algorithm ~order ~domains ~cancel
      p.p_query (fun () -> p)
  in
  (not refuted, stats)

let prepared_possible_boolean_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel p =
  boolean_stats ~target:true ~span:"certain.possible_boolean"
    ~name:"prepared_possible_boolean" ~algorithm ~order ~domains ~cancel
    p.p_query (fun () -> p)

(* --- per-tuple entry points ----------------------------------------- *)

(* [c ∈ Q(LB)] is the Boolean question whether the sentence [φ(c)] is
   certain (or possible): on every structure, [h(c) ∈ Q(h(Ph₁))] iff
   the image satisfies [φ(c)], each constant of [c] denoting its image
   under [h]. So a member check is the instantiated sentence, prepared
   and decided by the Boolean runner inside the entry point's span. *)
let member_stats ~target ~span ~name ~algorithm ~order ~domains ~cancel
    ~kernel lb q tuple =
  validate lb q;
  validate_tuple lb q tuple;
  if Query.is_boolean q then
    invalid_arg
      (Printf.sprintf "Certain.%s: Boolean query; use %s" name
         (if target then "possible_boolean" else "certain_boolean"));
  let sentence = Query.boolean (Query.instantiate q tuple) in
  timed ~span
    (run_boolean ~target ~algorithm ~order ~domains ~cancel)
    (fun () -> prepare_unchecked ~kernel ~relational:false lb sentence)

let certain_member_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel ?(kernel = Compiled) lb q
    tuple =
  let refuted, stats =
    member_stats ~target:false ~span:"certain.member" ~name:"certain_member"
      ~algorithm ~order ~domains ~cancel ~kernel lb q tuple
  in
  (not refuted, stats)

let certain_member ?algorithm ?order ?domains ?cancel ?kernel lb q tuple =
  fst
    (certain_member_stats ?algorithm ?order ?domains ?cancel ?kernel lb q
       tuple)

let possible_member_stats ?(algorithm = Kernel_partitions)
    ?(order = Fresh_first) ?(domains = 1) ?cancel ?(kernel = Compiled) lb q
    tuple =
  member_stats ~target:true ~span:"certain.possible_member"
    ~name:"possible_member" ~algorithm ~order ~domains ~cancel ~kernel lb q
    tuple

let possible_member ?algorithm ?order ?domains ?cancel ?kernel lb q tuple =
  fst
    (possible_member_stats ?algorithm ?order ?domains ?cancel ?kernel lb q
       tuple)
