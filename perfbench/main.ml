(* perfbench: one run of one workload.

     main.exe --workload serve-read|serve-write|approx-batch --seed N
              --seconds S --trace 0|1 --ldb PATH [--commit SHA] [--out FILE]

   Works in a fresh directory under .perfbench-run/ of the current
   directory, removed on exit. Prints every metric by name and unit, a
   vardi-bench/2 record (also appended to --out), and as its last line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1. *)

module Json = Logicaldb.Serve_json

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-read|serve-write|approx-batch --seed N --seconds S \
     --trace 0|1 --ldb PATH [--commit SHA] [--out FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" = 1 in
  let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
  let cwd = Sys.getcwd () in
  let absolute p = if Filename.is_relative p then Filename.concat cwd p else p in
  let out = Option.map absolute (List.assoc_opt "out" opts) in
  let run =
    match workload with
    | "serve-read" | "serve-write" ->
      let ldb = absolute (get "ldb") in
      if not (Sys.file_exists ldb) then (
        prerr_endline ("perfbench: no ldb binary at " ^ ldb);
        exit 2);
      let kind = if workload = "serve-read" then Serve_bench.Read else Serve_bench.Write in
      fun () -> Serve_bench.run ~ldb kind ~seed ~seconds ~trace
    | "approx-batch" -> fun () -> Approx_bench.run ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let dir = Filename.concat (absolute ".perfbench-run") (string_of_int (Unix.getpid ())) in
  Util.mkdir_p dir;
  Sys.chdir dir;
  let steal0, ticks0 = Util.cpu_ticks () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Serve_bench.kill_all ();
        Sys.chdir cwd;
        Util.rm_rf dir;
        try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
      run
  in
  let steal1, ticks1 = Util.cpu_ticks () in
  (* Time the hypervisor gave other guests while this run wanted the
     CPU: the noise floor of the host, recorded beside every result. *)
  let steal_frac = Util.ratio (steal1 - steal0) (ticks1 - ticks0) in
  Printf.printf "host steal during the run: %.4f\n" steal_frac;
  Report.print_metrics "end-to-end" r.e2e;
  Report.print_metrics "not gated" r.extra;
  let layers = Report.all_layers r.layers in
  if trace then Report.print_metrics "per-layer (traced replay)" layers;
  let record =
    Json.Obj
      ([
         ("schema", Json.Str "vardi-bench/2");
         ("workload", Json.Str workload);
         ("seed", Json.Num (float_of_int seed));
         ("seconds", Json.Num seconds);
         ("trace", Json.Bool trace);
         ( "host",
           Json.Obj
             [
               ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
               ("ocaml", Json.Str Sys.ocaml_version);
               ("commit", Json.Str commit);
               ("steal_frac", Report.num steal_frac);
             ] );
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Report.metrics_json r.e2e);
         ("extra", Report.metrics_json r.extra);
         ("layers", Report.metrics_json (if trace then layers else []));
       ]
      @ r.info)
  in
  let record_line = Json.to_string record in
  print_endline record_line;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (record_line ^ "\n");
      close_out oc)
    out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", Report.metrics_json (if trace then layers else r.e2e));
          ]))
