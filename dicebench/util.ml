(* Clocks, summary statistics, process counters and the result line. *)

(* Process CPU seconds (user + system, from getrusage).  The harness is
   single-threaded and does no I/O in its timed phases, so this is the
   host time the work costs, without the time other tenants of a shared
   host keep the process descheduled. *)
let cpu () = Sys.time ()

(* Host wall clock: run deadlines and traced spans. *)
let wall () = Unix.gettimeofday ()

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted_of l) 0.5

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it; 0 otherwise. *)
let tail_percentile l p =
  let a = sorted_of l in
  let n = Array.length a in
  if float_of_int n *. (1. -. p) < 10. then 0.
  else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let sum l = List.fold_left ( +. ) 0. l

(* Words allocated so far, minor and major heaps together. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> acc
        | l ->
            let acc =
              try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
              with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc
            in
            go acc
      in
      let v = go nan in
      close_in ic;
      v

(* Output-check failures: every one is printed on stderr and turns the
   run's [correct] to false. *)
let errors = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("check failed: " ^ msg);
        errors := msg :: !errors
      end)
    fmt

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~attempted ~failed metrics =
  List.iter
    (fun { name; value; _ } -> check (Float.is_finite value) "metric %s is %f" name value)
    metrics;
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value)
          unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!errors = []) attempted failed (String.concat ", " fields)
