(* DiCE benchmark harness.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe freeze SRC DST

   The first form runs one workload and prints, as the last line of
   standard output, one JSON object: correct, attempted, failed and the
   metrics (end-to-end ones untraced, per-layer ones traced).  The
   second rebuilds the frozen corpus DST from SRC and checks that every
   copied entry still replays. *)

open Util

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe freeze SRC DST";
  exit 2

let find name =
  match
    List.find_opt (fun (Workloads.W w) -> String.equal w.Workloads.name name) Workloads.all
  with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S; available: %s\n" name
        (String.concat " "
           (List.map (fun (Workloads.W w) -> w.Workloads.name) Workloads.all));
      exit 2

(* [setup_reps] samples of [setup_batch] set-ups from scratch each.  A
   sample deploys [setup_batch] inputs generated from the seed (the
   seed itself last, so its set-up is the one kept), which evens out
   how much set-up work one seed's link delays happen to cost.  The
   heap is compacted before each sample (untimed) so earlier garbage
   neither slows the next sample nor inflates peak RSS. *)
let set_up (w : _ Workloads.t) seed =
  let times = ref [] and env = ref None in
  for _ = 1 to w.Workloads.setup_reps do
    env := None;
    Gc.compact ();
    let t0 = cpu () in
    for k = w.Workloads.setup_batch - 1 downto 0 do
      env := Some (w.Workloads.setup Workloads.untimed (seed + (k * 7919)))
    done;
    times := ((cpu () -. t0) /. float_of_int w.Workloads.setup_batch) :: !times
  done;
  (median !times, Option.get !env)

(* Every pass starts with an empty solver cache (emptied untimed), so
   each one pays for its own constraint solving, as the first sweep of a
   fresh explorer does, and the traced pass sees the same solver work
   as the timed ones. *)
let pass (w : _ Workloads.t) env =
  Concolic.Solver.clear_cache ();
  w.Workloads.pass env

let run_untraced (w : _ Workloads.t) ~seed ~seconds =
  let setup_s, env = set_up w seed in
  Printf.printf "%s seed %d: %s\n" w.Workloads.name seed (w.Workloads.describe env);
  if w.Workloads.warm_up then ignore (pass w env);
  let start = wall () in
  let a0 = allocated_words () in
  let first = pass w env in
  let alloc = allocated_words () -. a0 in
  (* Peak RSS after a fixed amount of work: set-up, warm-up, one pass. *)
  let rss = peak_rss_mb () in
  let passes = ref [ first ] in
  while wall () -. start < seconds do
    passes := pass w env :: !passes
  done;
  w.Workloads.final env;
  let ps = !passes in
  let ops = List.fold_left (fun a (p : Workloads.pass) -> a + p.Workloads.ops) 0 ps in
  let failed = List.fold_left (fun a (p : Workloads.pass) -> a + p.Workloads.failed) 0 ps in
  let busy = sum (List.map (fun (p : Workloads.pass) -> p.Workloads.seconds) ps) in
  Printf.printf "%s seed %d: %d passes, %d ops, %.3fs busy; pass seconds %s\n"
    w.Workloads.name seed (List.length ps) ops busy
    (String.concat " "
       (List.rev_map (fun (p : Workloads.pass) -> Printf.sprintf "%.3f" p.Workloads.seconds) ps));
  print_result ~attempted:ops ~failed
    [ m "setup_s" "s" setup_s;
      m "detect_s" "s" (median (List.map (fun (p : Workloads.pass) -> p.Workloads.detect) ps));
      m "pass_s" "s" (median (List.map (fun (p : Workloads.pass) -> p.Workloads.seconds) ps));
      m "peak_rss_mb" "MB" rss;
      m "alloc_mw_per_op" "Mwords" (alloc /. 1e6 /. float_of_int first.Workloads.ops) ]

let run_traced (w : _ Workloads.t) ~seed =
  let acc = Traced.create () in
  let phase =
    { Workloads.run = (fun name f -> Traced.time acc name f);
      note = (fun name k -> Traced.bump acc name k) }
  in
  let env = w.Workloads.setup phase seed in
  if w.Workloads.warm_up then ignore (pass w env);
  (* The program's pass runs before and after the traced one; their
     mean is the untraced reference for the tracing overhead. *)
  let timed f =
    let t0 = wall () and a0 = allocated_words () in
    let r = f () in
    (r, wall () -. t0, allocated_words () -. a0)
  in
  let program, before, program_words = timed (fun () -> pass w env) in
  Concolic.Solver.clear_cache ();
  let s0 = Concolic.Solver.stats () in
  let (roots, ops), traced, traced_words = timed (fun () -> w.Workloads.traced acc env) in
  let s1 = Concolic.Solver.stats () in
  let _, after, _ = timed (fun () -> pass w env) in
  let untraced = (before +. after) /. 2. in
  let traced = traced -. Traced.seconds acc "trace.duplicate" in
  check
    (roots = program.Workloads.roots)
    "traced loop reports [%s], the program [%s]" (String.concat " " roots)
    (String.concat " " program.Workloads.roots);
  check (ops = program.Workloads.ops) "traced loop ran %d ops, the program %d" ops
    program.Workloads.ops;
  Traced.print_breakdown acc ~traced ~untraced;
  Printf.printf "allocated: program pass %.1f Mwords, traced pass %.1f Mwords\n"
    (program_words /. 1e6) (traced_words /. 1e6);
  let gc = Gc.quick_stat () in
  let count = Traced.count acc and calls = Traced.calls acc in
  let seconds = Traced.seconds acc and per_call = Traced.per_call acc in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let shadows = count "core.shadows" in
  let per_shadow k = ratio k shadows in
  let events = count "netsim.events" and updates = count "bgp.updates" in
  let solver_calls =
    s1.Concolic.Solver.cache_hits + s1.Concolic.Solver.cache_misses
    - s0.Concolic.Solver.cache_hits - s0.Concolic.Solver.cache_misses
  in
  let ms name = 1e3 *. per_call name in
  let shadow_ms = List.map (fun s -> 1e3 *. s) acc.Traced.shadow_times in
  print_result ~attempted:ops ~failed:program.Workloads.failed
    [ m "topology.deploy_s" "s" (seconds "topology.deploy");
      m "topology.converge_s" "s" (seconds "topology.converge");
      m "topology.updates_sent" "count" (float_of_int (count "topology.updates_sent"));
      m "snapshot.cut_ms" "ms" (ms "snapshot.cut");
      m "snapshot.spawn_ms" "ms" (ms "snapshot.spawn");
      m "snapshot.fingerprint_ms" "ms" (ms "snapshot.fingerprint");
      m "snapshot.fingerprints_per_shadow" "count" (per_shadow (calls "snapshot.fingerprint"));
      m "netsim.events_per_shadow" "count" (per_shadow events);
      m "netsim.dispatch_us" "us"
        (if events = 0 then 0. else 1e6 *. seconds "netsim.dispatch" /. float_of_int events);
      m "bgp.updates_per_shadow" "count" (per_shadow updates);
      m "bgp.update_us" "us"
        (if updates = 0 then 0. else 1e6 *. seconds "netsim.dispatch" /. float_of_int updates);
      m "bgp.process_input_us" "us" (1e6 *. per_call "bgp.process_input");
      m "concolic.derive_ms" "ms" (ms "concolic.derive");
      m "concolic.inputs_per_derive" "count"
        (ratio (count "concolic.inputs") (calls "concolic.derive"));
      m "concolic.solver_calls" "count" (float_of_int solver_calls);
      m "concolic.solver_cache_hit_rate" "share"
        (ratio (s1.Concolic.Solver.cache_hits - s0.Concolic.Solver.cache_hits) solver_calls);
      m "concolic.search_nodes" "count"
        (float_of_int (s1.Concolic.Solver.search_nodes - s0.Concolic.Solver.search_nodes));
      m "core.shadow_ms_p50" "ms" (if shadow_ms = [] then 0. else median shadow_ms);
      m "core.shadow_ms_p90" "ms" (tail_percentile shadow_ms 0.9);
      m "core.check_decision_spec_ms" "ms" (ms "core.check_decision_spec");
      m "core.check_own_as_ms" "ms" (ms "core.check_own_as");
      m "core.check_martians_ms" "ms" (ms "core.check_martians");
      m "core.check_origin_ms" "ms" (ms "core.check_origin");
      m "core.shadows_quiesced" "count" (float_of_int (count "core.shadows_quiesced"));
      m "core.shadows_oscillating" "count" (float_of_int (count "core.shadows_oscillating"));
      m "core.shadows_diverging" "count" (float_of_int (count "core.shadows_diverging"));
      m "core.events_after_verdict_share" "share"
        (ratio (count "core.events_after_verdict") events);
      m "core.live_advance_ms" "ms" (ms "core.live_advance");
      m "triage.replay_s" "s" (seconds "triage.replay");
      m "repair.localize_s" "s" (seconds "repair.localize");
      m "repair.search_s" "s" (seconds "repair.search");
      m "repair.candidates" "count" (float_of_int (count "repair.candidates"));
      m "gc.minor_collections" "count" (float_of_int gc.Gc.minor_collections);
      m "gc.major_collections" "count" (float_of_int gc.Gc.major_collections);
      m "gc.promoted_mw" "Mwords" (gc.Gc.promoted_words /. 1e6);
      m "gc.top_heap_mw" "Mwords" (float_of_int gc.Gc.top_heap_words /. 1e6);
      m "trace.overhead_share" "share" ((traced /. untraced) -. 1.) ]

(* Copy every valid entry of [src] into [dst] byte for byte, then load
   the copy and replay each entry: the frozen corpus must still
   confirm. *)
let freeze ~src ~dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter
    (fun f -> if Filename.check_suffix f ".json" then Sys.remove (Filename.concat dst f))
    (Sys.readdir dst);
  List.iter
    (fun (path, r) ->
      match r with
      | Error msg -> Printf.printf "skipped %s: %s\n" path msg
      | Ok _ ->
          let data = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin
            (Filename.concat dst (Filename.basename path))
            (fun oc -> Out_channel.output_string oc data))
    (Triage.Corpus.load ~dir:src);
  let entries = Workloads.load_corpus dst in
  List.iter (fun e -> ignore (Workloads.confirm e)) entries;
  Printf.printf "froze %d entries into %s\n" (List.length entries) dst;
  if !errors <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "freeze"; src; dst ] -> freeze ~src ~dst
  | _ :: args ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let (Workloads.W w) = find (get "workload") in
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      if not (Sys.file_exists Workloads.corpus_dir) then begin
        prerr_endline "run from the repository root (dicebench/corpus not found)";
        exit 2
      end;
      if int "trace" = 0 then run_untraced w ~seed ~seconds else run_traced w ~seed
  | [] -> usage ()
