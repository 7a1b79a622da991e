(* The traced run: the explorer loop, the orchestrator's round-robin and
   the triage/repair steps rebuilt from public calls, with a timer
   around each call into a layer.  Used only with --trace 1; the
   end-to-end metrics come from the program's own loops. *)

open Util

type acc = {
  timers : (string, int * float) Hashtbl.t;  (** name -> calls, seconds *)
  counts : (string, int) Hashtbl.t;
  mutable shadow_times : float list;  (** seconds per shadow replay *)
}

let create () =
  { timers = Hashtbl.create 32; counts = Hashtbl.create 32; shadow_times = [] }

let add_time acc name dt =
  let n, t = Option.value (Hashtbl.find_opt acc.timers name) ~default:(0, 0.) in
  Hashtbl.replace acc.timers name (n + 1, t +. dt)

let bump acc name k =
  Hashtbl.replace acc.counts name
    (k + Option.value (Hashtbl.find_opt acc.counts name) ~default:0)

let count acc name = Option.value (Hashtbl.find_opt acc.counts name) ~default:0

let calls acc name = fst (Option.value (Hashtbl.find_opt acc.timers name) ~default:(0, 0.))

let seconds acc name = snd (Option.value (Hashtbl.find_opt acc.timers name) ~default:(0, 0.))

(* Mean seconds per call; 0 for a layer this workload never calls. *)
let per_call acc name =
  match calls acc name with 0 -> 0. | n -> seconds acc name /. float_of_int n

let time acc name f =
  let t0 = wall () in
  Fun.protect ~finally:(fun () -> add_time acc name (wall () -. t0)) f

(* Live bug flags per node, so clones run the same (buggy) code. *)
let bugs_of build =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (id, (sp : Bgp.Speaker.t)) -> Hashtbl.replace tbl id (sp.Bgp.Speaker.sp_bugs ()))
    build.Topology.Build.speakers;
  fun id -> Option.value (Hashtbl.find_opt tbl id) ~default:Bgp.Router.no_bugs

let checker_timer = function
  | "decision-process-spec" -> "core.check_decision_spec"
  | "no-own-as-in-path" -> "core.check_own_as"
  | "no-martians" -> "core.check_martians"
  | "origin-authenticity" -> "core.check_origin"
  | other -> "core.check_" ^ other

let rx_updates (sh : Snapshot.Store.shadow) =
  List.fold_left
    (fun acc (_, (sp : Bgp.Speaker.t)) ->
      acc + Netsim.Stats.get (sp.Bgp.Speaker.sp_stats ()) "rx_update")
    0 sh.Snapshot.Store.sh_speakers

(* [Checks.convergence] with its fingerprint samples and engine steps
   timed apart: same budget, same 1-in-100 sampling, and, as there, no
   further sample once a revisit has fixed the verdict. *)
let convergence acc ~budget sh =
  let sample_every = 100 in
  let eng = sh.Snapshot.Store.sh_engine in
  let seen = Hashtbl.create 64 in
  let last = ref None in
  let fp_time = ref 0. in
  let first_revisit = ref (-1) in
  let sample events =
    let t0 = wall () in
    let fp = Snapshot.Store.loc_rib_fingerprint sh in
    let dt = wall () -. t0 in
    fp_time := !fp_time +. dt;
    add_time acc "snapshot.fingerprint" dt;
    let changed = !last <> Some fp in
    let known = Hashtbl.mem seen fp in
    Hashtbl.replace seen fp ();
    last := Some fp;
    if changed && known then first_revisit := events;
    changed && known
  in
  let t0 = wall () in
  let rec go events revisited =
    if Netsim.Engine.pending eng = 0 then (`Quiesced, events)
    else if events >= budget then
      ((if revisited then `Oscillating else `Diverging), events)
    else begin
      let revisited =
        if events mod sample_every = 0 then revisited || sample events else revisited
      in
      ignore (Netsim.Engine.step eng);
      go (events + 1) revisited
    end
  in
  let verdict, events = go 0 false in
  let loop = wall () -. t0 in
  add_time acc "netsim.dispatch" (loop -. !fp_time);
  bump acc "netsim.events" events;
  if !first_revisit >= 0 then bump acc "core.events_after_verdict" (events - !first_revisit);
  bump acc
    (match verdict with
    | `Quiesced -> "core.shadows_quiesced"
    | `Oscillating -> "core.shadows_oscillating"
    | `Diverging -> "core.shadows_diverging")
    1;
  List.map
    (fun (id, _) ->
      match verdict with
      | `Quiesced -> (id, None)
      | `Oscillating -> (id, Some "routing oscillation (state revisited)")
      | `Diverging -> (id, Some "no quiescence within event budget"))
    sh.Snapshot.Store.sh_speakers

(* One explored node: Explorer.explore_node's steps, each timed. *)
let explore acc ~(params : Dice.Explorer.params) ~build ~cut ~gt ~node =
  let cut_result =
    time acc "snapshot.cut" (fun () ->
        Dice.Explorer.take_snapshot ?deadline:params.Dice.Explorer.snapshot_deadline
          ~build ~cut ~node ())
  in
  let snapshot = Snapshot.Cut.snapshot_of cut_result in
  let now = Netsim.Engine.now build.Topology.Build.engine in
  let bugs_of = bugs_of build in
  let faults = ref [] in
  let fault ?input cls ~node ~property detail =
    faults := Dice.Fault.make ?input ~at:now ~node ~property cls detail :: !faults
  in
  (* Remote verdicts leave their node only as privacy digests. *)
  let digest verdicts =
    time acc "core.digest" (fun () ->
        List.iter
          (fun (v : Dice.Checks.verdict) ->
            if v.Dice.Checks.v_node <> node then
              ignore
                (Dice.Privacy.digest ~node:v.Dice.Checks.v_node
                   ~property:v.Dice.Checks.v_property ~ok:v.Dice.Checks.v_ok
                   ~evidence:v.Dice.Checks.v_evidence))
          verdicts)
  in
  let run_checker ?input sh (c : Dice.Checks.checker) =
    let verdicts =
      time acc (checker_timer c.Dice.Checks.name) (fun () -> c.Dice.Checks.run sh)
    in
    digest verdicts;
    List.iter
      (fun (v : Dice.Checks.verdict) ->
        if not v.Dice.Checks.v_ok then
          fault ?input c.Dice.Checks.fault_class ~node:v.Dice.Checks.v_node
            ~property:v.Dice.Checks.v_property v.Dice.Checks.v_evidence)
      verdicts
  in
  let spawn () =
    time acc "snapshot.spawn" (fun () -> Snapshot.Store.spawn ~bugs_of snapshot)
  in
  let suite = Dice.Checks.standard_suite gt in
  let scoped s =
    List.filter (fun (c : Dice.Checks.checker) -> c.Dice.Checks.scope = s) suite
  in
  let budget = params.Dice.Explorer.shadow_budget in
  (match scoped Dice.Checks.Baseline with
  | [] -> ()
  | baseline ->
      let pristine = spawn () in
      ignore
        (time acc "netsim.quiesce" (fun () ->
             Snapshot.Store.run_to_quiescence ~max_events:budget pristine));
      List.iter (run_checker pristine) baseline);
  let per_input = scoped Dice.Checks.Per_input in
  let cfg = (Topology.Build.speaker build node).Bgp.Speaker.sp_config () in
  let peers =
    List.filteri (fun i _ -> i < params.Dice.Explorer.peers_per_node) cfg.Bgp.Config.neighbors
  in
  List.iter
    (fun (peer : Bgp.Config.neighbor) ->
      let peer_addr = peer.Bgp.Config.addr in
      let probe = spawn () in
      let view =
        Dice.Sym_handler.view_of_speaker (Snapshot.Store.speaker probe node) ~peer:peer_addr
      in
      let result =
        time acc "concolic.derive" (fun () ->
            Concolic.Engine.explore ~limits:params.Dice.Explorer.limits
              ~seeds:(Dice.Sym_handler.seeds view) (Dice.Sym_handler.run view))
      in
      bump acc "concolic.inputs" result.Concolic.Engine.inputs_executed;
      List.iter
        (fun (r : _ Concolic.Engine.run) ->
          let input = r.Concolic.Engine.run_input in
          match r.Concolic.Engine.run_outcome with
          | Concolic.Engine.Raised (Bgp.Router.Crash detail) ->
              fault ~input Dice.Fault.Programming_error ~node ~property:"handler-crash"
                detail
          | Concolic.Engine.Raised e ->
              fault ~input Dice.Fault.Programming_error ~node
                ~property:"handler-exception" (Printexc.to_string e)
          | Concolic.Engine.Value _ -> ())
        result.Concolic.Engine.runs;
      let inputs =
        List.map (fun (r : _ Concolic.Engine.run) -> r.Concolic.Engine.run_input)
          result.Concolic.Engine.runs
        @ Dice.Sym_handler.fuzz_inputs view
            (Netsim.Rng.create (0xF0 + node))
            params.Dice.Explorer.fuzz_extra
      in
      List.iter
        (fun input ->
          let t0 = wall () in
          let raw = Dice.Sym_handler.concretize view input in
          let sh = spawn () in
          let rx0 = rx_updates sh in
          let target = Snapshot.Store.speaker sh node in
          let p0 = wall () in
          (match
             target.Bgp.Speaker.sp_process_raw
               ~from_node:(Bgp.Router.node_of_addr peer_addr) raw
           with
          | () -> ()
          | exception Bgp.Router.Crash detail ->
              fault ~input Dice.Fault.Programming_error ~node ~property:"handler-crash"
                detail);
          add_time acc "bgp.process_input" (wall () -. p0);
          let conv =
            if params.Dice.Explorer.check_convergence then convergence acc ~budget sh
            else begin
              ignore
                (time acc "netsim.quiesce" (fun () ->
                     Snapshot.Store.run_to_quiescence ~max_events:budget sh));
              []
            end
          in
          List.iter (run_checker ~input sh) per_input;
          digest
            (List.map
               (fun (id, bad) ->
                 { Dice.Checks.v_node = id; v_property = "convergence"; v_ok = bad = None;
                   v_evidence = Option.value bad ~default:"" })
               conv);
          List.iter
            (fun (id, bad) ->
              Option.iter
                (fault ~input Dice.Fault.Policy_conflict ~node:id ~property:"convergence")
                bad)
            conv;
          bump acc "bgp.updates" (rx_updates sh - rx0);
          bump acc "core.shadows" 1;
          acc.shadow_times <- (wall () -. t0) :: acc.shadow_times)
        inputs)
    peers;
  Dice.Fault.dedupe (List.rev !faults)

(* Orchestrator.run's round-robin: explore each node, let the live
   system advance by the round interval, then report the round's new
   fault roots to [on_fault]. *)
let orchestrate acc ~on_fault ~build ~gt nodes =
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun node ->
      let faults = explore acc ~params:Dice.Explorer.default_params ~build ~cut ~gt ~node in
      time acc "core.live_advance" (fun () ->
          Topology.Build.run_for build (Netsim.Time.span_sec 5.));
      List.filter
        (fun f ->
          let k = Dice.Fault.root f in
          let fresh = not (Hashtbl.mem seen k) in
          if fresh then begin
            Hashtbl.add seen k ();
            on_fault f
          end;
          fresh)
        faults)
    nodes

(* Self-time shares of the traced pass, by layer. *)
let layers =
  [ ("snapshot", [ "snapshot.cut"; "snapshot.spawn"; "snapshot.fingerprint" ]);
    ("netsim", [ "netsim.dispatch"; "netsim.quiesce" ]);
    ("bgp", [ "bgp.process_input" ]);
    ("concolic", [ "concolic.derive" ]);
    ( "core",
      [ "core.check_decision_spec"; "core.check_own_as"; "core.check_martians";
        "core.check_origin"; "core.digest"; "core.live_advance" ] );
    ("triage", [ "triage.replay" ]);
    ("repair", [ "repair.localize"; "repair.search" ]) ]

let print_breakdown acc ~traced ~untraced =
  Printf.printf "traced pass %.3fs, untraced pass %.3fs, tracing overhead %+.1f%%\n" traced
    untraced
    (100. *. ((traced /. untraced) -. 1.));
  let accounted = ref 0. in
  List.iter
    (fun (layer, names) ->
      let s = List.fold_left (fun a n -> a +. seconds acc n) 0. names in
      accounted := !accounted +. s;
      if s > 0. then
        Printf.printf "  %-9s %6.2f%%  %s\n" layer (100. *. s /. traced)
          (String.concat " "
             (List.filter_map
                (fun n ->
                  let t = seconds acc n in
                  if t > 0. then Some (Printf.sprintf "%s=%.1f%%" n (100. *. t /. traced))
                  else None)
                names)))
    layers;
  Printf.printf "  %-9s %6.2f%%\n" "other" (100. *. (traced -. !accounted) /. traced)
