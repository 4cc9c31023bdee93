module Certain = Vardi_certain.Engine
module Partition = Vardi_cwdb.Partition
module Relation = Vardi_relational.Relation

(* Best-of-three timing of [repeats] back-to-back runs: the small
   |C| = 7 scans finish in microseconds (the survivor set often empties
   after a handful of structures), so a single sample sits at the
   clock's granularity and the speedup column would divide noise. *)
let timed ~repeats f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to 3 do
    let r, ms =
      Table.time (fun () ->
          for _ = 2 to repeats do
            ignore (f ())
          done;
          f ())
    in
    result := Some r;
    if ms < !best then best := ms
  done;
  (Option.get !result, !best /. float repeats)

let e15 () =
  let row ?(repeats = 20) label db q =
    let partitions = Partition.count_valid db in
    (* Warm both paths once so plan compilation and major-heap growth
       are not charged to either kernel. *)
    ignore (Certain.answer ~kernel:Certain.Compiled db q);
    ignore (Certain.answer ~kernel:Certain.Strings db q);
    let compiled, compiled_ms =
      timed ~repeats (fun () -> Certain.answer ~kernel:Certain.Compiled db q)
    in
    let strings, strings_ms =
      timed ~repeats (fun () -> Certain.answer ~kernel:Certain.Strings db q)
    in
    let speedup =
      if compiled_ms <= 0.0 then "n/a"
      else Printf.sprintf "%.2fx" (strings_ms /. compiled_ms)
    in
    [
      label;
      string_of_int partitions;
      Table.ms strings_ms;
      Table.ms compiled_ms;
      speedup;
      string_of_bool (Relation.equal compiled strings);
    ]
  in
  (* The |C| = 7 curve uses the positive query: its certain answer is
     non-empty, so the survivor set never empties and the scan visits
     every partition — the per-structure cost the kernel targets. The
     E1-medium row keeps the bench's mixed query (early exit included)
     so it is comparable with the e1/exact-medium and
     e1/exact-medium-strings micro-benchmarks. *)
  let curve =
    List.map
      (fun unknowns ->
        let db = Workloads.parametric_db ~constants:7 ~unknowns ~seed:42 in
        (* No "|C|" in the label: these cells land in a markdown
           table. *)
        row (Printf.sprintf "C=7, u=%d" unknowns) db Workloads.positive_query)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let medium =
    row ~repeats:3 "C=16, u=2 (E1-medium)"
      (Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7)
      Workloads.mixed_query
  in
  Table.make ~id:"E15"
    ~title:"compiled evaluation kernel vs string kernel on the exact scan"
    ~paper_claim:
      "engineering claim (no theorem): interning constants to dense integer \
       codes, sharing quotient prefixes along the partition tree and \
       compiling the per-structure evaluators to flat code speeds up the \
       Theorem-1 scan without changing any answer"
    ~header:
      [ "workload"; "partitions"; "strings ms"; "compiled ms"; "speedup"; "equal" ]
    ~notes:
      [
        "both kernels run the identical structure enumeration order, so the \
         speedup is pure per-structure evaluation cost;";
        "the |C|=7 curve runs the positive query, whose non-empty certain \
         answer forces a full scan over every partition; the E1-medium row \
         runs the bench's mixed query (early exit included) to stay \
         comparable with the e1/exact-medium{,-strings} micro-benchmarks;";
        "at u=0 the scan evaluates a single structure and the interning \
         and compilation setup dominates — the compiled kernel only pays \
         off once the partition count grows;";
        "equal = the two kernels returned identical relations (the \
         kernel-parity fuzz oracle checks the same across algorithms, \
         orders and domain counts).";
      ]
    (curve @ [ medium ])
