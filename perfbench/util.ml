(* Small helpers shared by the workloads: clocks, order statistics,
   files under the run directory, and the process memory probe. *)

let now () = Unix.gettimeofday ()

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 1]. *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [(steal, total)] CPU time of the host so far, in clock ticks (the
   first line of /proc/stat); [(0, 0)] where it cannot be read. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | "cpu" :: fields ->
          let ticks = List.filter_map int_of_string_opt fields in
          ((match List.nth_opt ticks 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 ticks)
        | _ | (exception End_of_file) -> (0, 0))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Host steal over a timed run: a thread reads /proc/stat at every
   whole second after [start]; the returned function joins it and gives
   the share of CPU time the hypervisor took in each second. *)
let steal_sampler ~start ~seconds =
  let n = max 1 seconds in
  let steal = Array.make n 0. in
  let sample () =
    let prev = ref (cpu_ticks ()) in
    for i = 1 to n do
      let wait = start +. float_of_int i -. now () in
      if wait > 0. then Thread.delay wait;
      let steal_ticks, ticks = cpu_ticks () in
      steal.(i - 1) <- ratio (steal_ticks - fst !prev) (ticks - snd !prev);
      prev := (steal_ticks, ticks)
    done
  in
  let thread = Thread.create sample () in
  fun () ->
    Thread.join thread;
    steal

(* The timed statistics below use only the quieter part of a run:
   windows whose steal is at most the median window's. Seconds in
   which the hypervisor ran other guests measure the neighbours, not
   the program. Samples are [(at, x)], [at] seconds into the run;
   [steal] comes from [steal_sampler]. *)

(* [samples] grouped into [count] windows of whole seconds, each with
   its mean steal; the last window takes the remainder. *)
let windows ~steal ~count samples =
  let n = Array.length steal in
  let width = max 1 (n / count) in
  let index at = min (count - 1) (int_of_float at / width) in
  let buckets = Array.make count [] in
  List.iter (fun (at, x) -> buckets.(index at) <- x :: buckets.(index at)) samples;
  List.init count (fun w ->
      let last = if w = count - 1 then n else (w + 1) * width in
      (mean (Array.to_list (Array.sub steal (w * width) (last - (w * width)))), buckets.(w)))

let quiet_windows windows =
  let m = median (List.map fst windows) in
  List.filter_map (fun (s, xs) -> if s <= m then Some xs else None) windows

(* Ops completed per second: the median over the quiet seconds. *)
let throughput ~steal ats =
  median
    (List.map
       (fun xs -> float_of_int (List.length xs))
       (quiet_windows
          (windows ~steal ~count:(Array.length steal) (List.map (fun at -> (at, ())) ats))))

(* The median of the samples in the quiet seconds. *)
let p50 ~steal samples =
  median (List.concat (quiet_windows (windows ~steal ~count:(Array.length steal) samples)))

(* The 99th percentile: the median over quiet windows that each hold at
   least 1000 samples (ten beyond the percentile). *)
let p99 ~steal samples =
  let count = max 1 (min (Array.length steal) (List.length samples / 1000)) in
  median (List.map (percentile 0.99) (quiet_windows (windows ~steal ~count samples)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* Peak resident set of a process ([VmHWM] in /proc), in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        scan ())

(* Sorted rows of an answer, the form both sides of a check compare. *)
let sorted_rows rows = List.sort_uniq compare rows
