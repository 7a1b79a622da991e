(* The four workloads.  Each has a set-up made from its seed, an untimed
   warm-up, a pass of the program's own loop (timed, with output checks
   against computations made apart from the program), an untimed final
   check, and a traced pass that rebuilds the same loop from public
   calls. *)

open Util

(* One pass of the program's own loop. *)
type pass = {
  ops : int;  (** shadow replays, or corpus entries *)
  failed : int;
  seconds : float;  (** CPU seconds of the whole pass *)
  detect : float;  (** CPU seconds until the pass's last expected verdict *)
  roots : string list;  (** fault roots reported, sorted *)
}

(* Wraps the phases of a set-up, so the traced run can time and count
   them. *)
type phase = { run : 'a. string -> (unit -> 'a) -> 'a; note : string -> int -> unit }

let untimed = { run = (fun _ f -> f ()); note = (fun _ _ -> ()) }

type 'env t = {
  name : string;
  setup_reps : int;  (** timed samples of set-up per run; their median is setup_s *)
  setup_batch : int;  (** set-ups from scratch per sample, so a sample lasts about a second or more *)
  setup : phase -> int -> 'env;
  warm_up : bool;  (** one untimed pass before the timed ones *)
  pass : 'env -> pass;
  final : 'env -> unit;
  describe : 'env -> string;  (** the inputs the seed generated *)
  traced : Traced.acc -> 'env -> string list * int;  (** fault roots, ops *)
}

type packed = W : 'env t -> packed

let sorted_roots faults =
  List.sort_uniq compare (List.map Dice.Fault.root faults)

let root cls ~property node =
  Dice.Fault.root (Dice.Fault.make ~at:Netsim.Time.zero ~node ~property cls "")

(* Deploy, start and converge; the traced run times the two phases. *)
let deploy_converged (ph : phase) ~seed graph =
  let build =
    ph.run "topology.deploy" (fun () ->
        let b = Topology.Build.deploy ~seed graph in
        Topology.Build.start_all b;
        b)
  in
  let ok = ph.run "topology.converge" (fun () -> Topology.Build.converge build) in
  check ok "live network converges after deploy";
  ph.note "topology.updates_sent" (Topology.Build.total_updates_sent build);
  build

let ground_truth build = Dice.Checks.ground_truth_of_graph build.Topology.Build.graph

(* A timed Orchestrator.run over [nodes]: detect is the CPU time at
   which the last of [expected] reached on_fault. *)
let orchestrated_pass ~build ~nodes ~expected =
  let gt = ground_truth build in
  let pending = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace pending k ()) expected;
  let t0 = cpu () in
  let detect = ref nan in
  let on_fault f =
    Hashtbl.remove pending (Dice.Fault.root f);
    if Hashtbl.length pending = 0 && Float.is_nan !detect then detect := cpu () -. t0
  in
  let s =
    Dice.Orchestrator.run ~nodes ~on_fault ~build ~gt ~rounds:(List.length nodes) ()
  in
  let seconds = cpu () -. t0 in
  let roots = sorted_roots s.Dice.Orchestrator.faults in
  check (roots = expected) "faults reported [%s], expected [%s]" (String.concat " " roots)
    (String.concat " " expected);
  check (s.Dice.Orchestrator.failed_rounds = 0) "%d rounds failed"
    s.Dice.Orchestrator.failed_rounds;
  { ops = s.Dice.Orchestrator.total_shadow_runs; failed = 0; seconds;
    detect = (if Float.is_nan !detect then seconds else !detect); roots }

let traced_orchestrate acc ~build ~nodes =
  let faults =
    Traced.orchestrate acc ~on_fault:ignore ~build ~gt:(ground_truth build) nodes
  in
  (sorted_roots faults, Traced.count acc "core.shadows")

(* ------------------------------------------------------------------ *)
(* demo27-faults                                                       *)
(* ------------------------------------------------------------------ *)

type demo = {
  d_build : Topology.Build.t;
  d_order : int list;
  d_expected : string list;
  d_desc : string;
}

(* Nodes whose selected route for [prefix] leads, hop by hop over the
   live Loc-RIBs' next hops, to an originator other than [owner]. *)
let hijacked_nodes build ~prefix ~owner =
  let next_hop = Hashtbl.create 32 in
  List.iter
    (fun (node, routes) ->
      List.iter
        (fun (p, nh) -> if Bgp.Prefix.equal p prefix then Hashtbl.replace next_hop node nh)
        routes)
    (Topology.Build.loc_rib_snapshot build);
  let rec origin node hops =
    if hops > 64 then None
    else
      match Hashtbl.find_opt next_hop node with
      | None -> None
      | Some -1 -> Some node
      | Some nh -> origin nh (hops + 1)
  in
  List.filter
    (fun n -> match origin n 0 with Some o -> o <> owner | None -> false)
    (Topology.Graph.node_ids build.Topology.Build.graph)

let owner_of_prefix graph prefix =
  List.find
    (fun id -> Bgp.Prefix.equal (Topology.Gao_rexford.prefix_of_node id) prefix)
    (Topology.Graph.node_ids graph)

(* The round-robin visits the tiers in turn (tier-1, transit, stub),
   each shuffled by the seed.  The faults sit at fixed places in that
   order: the loop-check bypass at a transit router (round 9), the
   hijack between two stubs (hijacker at round 14) and the crash bug at
   a stub (round 20 of 27), so the last one surfaces well into every
   pass and each seed costs about the same. *)
let demo_setup ph seed =
  let graph = Topology.Demo27.graph in
  let rng = Netsim.Rng.create seed in
  let tier t =
    let a = Array.of_list t in
    Netsim.Rng.shuffle rng a;
    Array.to_list a
  in
  let order =
    Array.of_list
      (tier Topology.Demo27.tier1 @ tier Topology.Demo27.transit
     @ tier Topology.Demo27.stubs)
  in
  let loop_at = order.(8) and hijacker = order.(13) and crash_at = order.(19) in
  let victim =
    Netsim.Rng.pick rng (List.filter (fun n -> n <> hijacker) Topology.Demo27.stubs)
  in
  let community = Bgp.Community.make 64999 (Netsim.Rng.int_in rng 1 999) in
  let build = deploy_converged ph ~seed graph in
  List.iter (Dice.Inject.apply build)
    [ Dice.Inject.Prefix_hijack { at = hijacker; victim };
      Dice.Inject.Loop_check_bug { at = loop_at };
      Dice.Inject.Crash_bug { at = crash_at; community } ];
  check (Topology.Build.converge build) "live network settles after injection";
  let stolen = Topology.Gao_rexford.prefix_of_node victim in
  let owner = owner_of_prefix graph stolen in
  let hijacked = hijacked_nodes build ~prefix:stolen ~owner in
  check (List.mem hijacker hijacked) "hijacker %d selects its own announcement" hijacker;
  let expected =
    List.sort_uniq compare
      (root Dice.Fault.Programming_error ~property:"no-own-as-in-path" loop_at
       :: root Dice.Fault.Programming_error ~property:"decision-process-spec" loop_at
       :: root Dice.Fault.Programming_error ~property:"handler-crash" crash_at
       :: List.map (root Dice.Fault.Operator_mistake ~property:"origin-authenticity") hijacked)
  in
  { d_build = build;
    d_order = Array.to_list order;
    d_expected = expected;
    d_desc =
      Printf.sprintf "order %s; loop bug at %d, %d hijacks %d's prefix, crash bug at %d on %s"
        (String.concat "," (Array.to_list (Array.map string_of_int order)))
        loop_at hijacker victim crash_at (Bgp.Community.to_string community) }

let demo27 =
  { name = "demo27-faults";
    setup_reps = 3;
    setup_batch = 64;
    setup = demo_setup;
    warm_up = true;
    pass =
      (fun d -> orchestrated_pass ~build:d.d_build ~nodes:d.d_order ~expected:d.d_expected);
    final = ignore;
    describe = (fun d -> d.d_desc);
    traced = (fun acc d -> traced_orchestrate acc ~build:d.d_build ~nodes:d.d_order) }

(* ------------------------------------------------------------------ *)
(* gadget-wheel                                                        *)
(* ------------------------------------------------------------------ *)

type gadget = { g_build : Topology.Build.t; g_node : int; g_seed : int }

let victim_prefix = Topology.Gao_rexford.prefix_of_node Topology.Gadget.victim

(* The seed picks the wheel's direction and rotation and the wheel
   node explored. *)
let gadget_setup ph seed =
  let rng = Netsim.Rng.create seed in
  let wheel = Array.of_list Topology.Gadget.wheel in
  let k = Netsim.Rng.int rng 3 in
  let cycle = List.init 3 (fun i -> wheel.((i + k) mod 3)) in
  let cycle = if Netsim.Rng.bool rng then List.rev cycle else cycle in
  let node = Netsim.Rng.pick rng cycle in
  let build = deploy_converged ph ~seed (Topology.Gadget.bad_gadget ()) in
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute { cycle; victim = Topology.Gadget.victim });
  Topology.Build.run_for build (Netsim.Time.span_sec 5.);
  { g_build = build; g_node = node; g_seed = seed }

let all_nodes_conflict build =
  List.map
    (root Dice.Fault.Policy_conflict ~property:"convergence")
    (Topology.Graph.node_ids build.Topology.Build.graph)

let next_hop_of build node =
  match
    Bgp.Prefix.Map.find_opt victim_prefix
      (Bgp.Speaker.loc_rib (Topology.Build.speaker build node))
  with
  | Some r -> Bgp.Ipv4.to_string r.Bgp.Rib.source.Bgp.Rib.peer_addr
  | None -> "none"

let gadget_final g =
  (* The live wheel node keeps changing its next hop for the victim's
     prefix: sample it every 0.5 s of simulated time. *)
  let build = g.g_build in
  let samples =
    List.init 40 (fun _ ->
        Topology.Build.run_for build (Netsim.Time.span_sec 0.5);
        next_hop_of build g.g_node)
  in
  let flips =
    fst
      (List.fold_left
         (fun (n, prev) nh -> ((if Some nh <> prev then n + 1 else n), Some nh))
         (-1, None) samples)
  in
  check
    (List.length (List.sort_uniq compare samples) >= 2 && flips >= 4)
    "live wheel node %d flips between next hops (%d flips over 20 s)" g.g_node flips;
  (* Control: the same gadget without the dispute converges, and an
     exploration from the same node reports no policy conflict. *)
  let control = deploy_converged untimed ~seed:g.g_seed (Topology.Gadget.bad_gadget ()) in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker control id)
      control.Topology.Build.net
  in
  let x =
    Dice.Explorer.explore_node ~build:control ~cut ~gt:(ground_truth control)
      ~node:g.g_node ()
  in
  check (x.Dice.Explorer.x_faults = []) "control exploration reports %d faults"
    (List.length x.Dice.Explorer.x_faults)

let gadget_wheel =
  { name = "gadget-wheel";
    setup_reps = 3;
    setup_batch = 50;
    setup = gadget_setup;
    warm_up = true;
    pass =
      (fun g ->
        orchestrated_pass ~build:g.g_build ~nodes:[ g.g_node ]
          ~expected:(all_nodes_conflict g.g_build));
    final = gadget_final;
    describe = (fun g -> Printf.sprintf "explore wheel node %d" g.g_node);
    traced = (fun acc g -> traced_orchestrate acc ~build:g.g_build ~nodes:[ g.g_node ]) }

(* ------------------------------------------------------------------ *)
(* gr250-explore                                                       *)
(* ------------------------------------------------------------------ *)

let gr_nodes = 250

(* The reduced limits of `bench scale`. *)
let gr_params =
  { Dice.Explorer.default_params with
    Dice.Explorer.limits =
      { Concolic.Engine.max_inputs = 12; max_branches = 24; solver_nodes = 20_000 };
    fuzz_extra = 4 }

type gr = {
  r_build : Topology.Build.t;
  r_cut : Snapshot.Cut.t;
  r_targets : int list;
  r_before : (int * (Bgp.Prefix.t * int) list) list;
  r_seed : int;
}

(* The topology is the canonical 250-router one of `bench scale`; the
   seed drives the deployment's link model. *)
let gr_setup ph seed =
  let graph = Topology.Gao_rexford.scale_graph ~nodes:gr_nodes ~seed:42 in
  let build = deploy_converged ph ~seed graph in
  let n_tier1, n_transit, _ = Topology.Gao_rexford.tiering ~nodes:gr_nodes in
  { r_build = build;
    r_cut =
      Snapshot.Cut.create
        ~speakers:(fun id -> Topology.Build.speaker build id)
        build.Topology.Build.net;
    r_targets = [ n_tier1; n_tier1 + n_transit ];
    r_before = Topology.Build.loc_rib_snapshot build;
    r_seed = seed }

let gr_explore r node =
  Dice.Explorer.explore_node ~params:gr_params ~build:r.r_build ~cut:r.r_cut
    ~gt:(ground_truth r.r_build) ~node ()

let gr_pass r =
  let t0 = cpu () in
  let xs = List.map (gr_explore r) r.r_targets in
  let seconds = cpu () -. t0 in
  let faults = List.concat_map (fun x -> x.Dice.Explorer.x_faults) xs in
  check (faults = []) "healthy network: %d faults reported" (List.length faults);
  { ops = List.fold_left (fun a x -> a + x.Dice.Explorer.x_shadow_runs) 0 xs;
    failed = 0; seconds; detect = seconds; roots = [] }

let gr_final r =
  let build = r.r_build in
  let routes = Topology.Build.total_loc_routes build in
  check (routes = gr_nodes * gr_nodes) "Loc-RIB holds %d routes, expected %d" routes
    (gr_nodes * gr_nodes);
  check (Topology.Build.loc_rib_snapshot build = r.r_before)
    "live Loc-RIBs unchanged by exploration";
  (* Sampled selected routes originate at their prefix's owner. *)
  let rng = Netsim.Rng.create (r.r_seed lxor 0x5A) in
  let bad = ref 0 in
  for _ = 1 to 200 do
    let node = Netsim.Rng.int rng gr_nodes in
    let owner = Netsim.Rng.int rng gr_nodes in
    let sp = Topology.Build.speaker build node in
    match
      Bgp.Prefix.Map.find_opt
        (Topology.Gao_rexford.prefix_of_node owner)
        (Bgp.Speaker.loc_rib sp)
    with
    | None -> incr bad
    | Some route ->
        let origin =
          match Bgp.As_path.origin_as route.Bgp.Rib.attrs.Bgp.Attr.as_path with
          | Some asn -> Topology.Gao_rexford.node_of_asn asn
          | None -> node
        in
        if origin <> owner then incr bad
  done;
  check (!bad = 0) "%d of 200 sampled routes do not originate at their owner" !bad

let gr250 =
  { name = "gr250-explore";
    setup_reps = 3;
    setup_batch = 1;
    setup = gr_setup;
    warm_up = true;
    pass = gr_pass;
    final = gr_final;
    describe =
      (fun r ->
        Printf.sprintf "explore nodes %s"
          (String.concat "," (List.map string_of_int r.r_targets)));
    traced =
      (fun acc r ->
        let faults =
          List.concat_map
            (fun node ->
              Traced.explore acc ~params:gr_params ~build:r.r_build ~cut:r.r_cut
                ~gt:(ground_truth r.r_build) ~node)
            r.r_targets
        in
        (sorted_roots faults, Traced.count acc "core.shadows")) }

(* ------------------------------------------------------------------ *)
(* corpus-repair                                                       *)
(* ------------------------------------------------------------------ *)

let corpus_dir = Filename.concat "dicebench" "corpus"

type corpus = {
  c_entries : Triage.Corpus.entry list;  (** in the seed's order *)
  mutable c_verified : (Triage.Corpus.entry * Repair.Search.candidate * Dice.Signature.t list) list;
      (** the last pass's verified patches, with the unpatched replay's signatures *)
}

let repairable (e : Triage.Corpus.entry) =
  match e.Triage.Corpus.e_signature.Dice.Signature.sg_class with
  | Dice.Fault.Operator_mistake | Dice.Fault.Policy_conflict -> true
  | Dice.Fault.Programming_error | Dice.Fault.Cascade -> false

let load_corpus dir =
  List.filter_map
    (fun (path, r) ->
      match r with
      | Ok e -> Some e
      | Error msg ->
          check false "%s: %s" path msg;
          None)
    (Triage.Corpus.load ~dir)

(* The frozen corpus is fixed data; the seed only orders it. *)
let corpus_setup (_ : phase) seed =
  let entries = Array.of_list (load_corpus corpus_dir) in
  check (Array.length entries > 0) "frozen corpus %s is empty" corpus_dir;
  Netsim.Rng.shuffle (Netsim.Rng.create seed) entries;
  { c_entries = Array.to_list entries; c_verified = [] }

let confirm (e : Triage.Corpus.entry) =
  match Triage.Corpus.replay e with
  | Triage.Corpus.Confirmed others -> Some (e.Triage.Corpus.e_signature :: others)
  | v ->
      check false "%s replays to %s"
        (Dice.Signature.to_string e.Triage.Corpus.e_signature)
        (Format.asprintf "%a" Triage.Corpus.pp_verdict v);
      None

let repair_verdict = function
  | Ok o when o.Repair.Search.re_verified <> None -> "verified"
  | Ok _ -> "unverified"
  | Error _ -> "rejected"

(* What happened to one entry, in terms the traced pass reproduces. *)
let outcome_label (e : Triage.Corpus.entry) sigs verdict =
  Printf.sprintf "%s=%s,%s"
    (Dice.Signature.to_string e.Triage.Corpus.e_signature)
    (if sigs = None then "vanished" else "confirmed")
    verdict

(* Confirm every entry, then repair every entry: a config fault must
   get a verified patch, any other fault must be rejected. *)
let corpus_pass c =
  let t0 = cpu () in
  let confirmed = List.map (fun e -> (e, confirm e)) c.c_entries in
  let detect = cpu () -. t0 in
  let failed = ref 0 in
  let verified = ref [] in
  let labels =
    List.map
      (fun ((e : Triage.Corpus.entry), sigs) ->
        let r = Repair.Search.run ~target:e.Triage.Corpus.e_signature e.Triage.Corpus.e_scenario in
        let verdict = repair_verdict r in
        let expected = if repairable e then "verified" else "rejected" in
        (match (sigs, r) with
        | Some sigs, Ok { Repair.Search.re_verified = Some cand; _ } ->
            verified := (e, cand, sigs) :: !verified
        | _ -> ());
        if sigs = None || verdict <> expected then begin
          incr failed;
          check false "repair of %s: %s, expected %s"
            (Dice.Signature.to_string e.Triage.Corpus.e_signature)
            verdict expected
        end;
        outcome_label e sigs verdict)
      confirmed
  in
  let seconds = cpu () -. t0 in
  c.c_verified <- List.rev !verified;
  { ops = List.length c.c_entries; failed = !failed; seconds; detect;
    roots = List.sort compare labels }

let corpus_final c =
  let rejected = List.filter (fun e -> not (repairable e)) c.c_entries in
  check (rejected <> []) "corpus holds a non-config fault to reject";
  check
    (List.length c.c_verified = List.length c.c_entries - List.length rejected)
    "%d verified patches for %d config faults" (List.length c.c_verified)
    (List.length c.c_entries - List.length rejected);
  (* An independent replay of each patched scenario: the target is
     gone and no signature appears that the unpatched replay lacked. *)
  List.iter
    (fun ((e : Triage.Corpus.entry), (cand : Repair.Search.candidate), sigs) ->
      let target = e.Triage.Corpus.e_signature in
      let o =
        Triage.Scenario.run
          (Repair.Search.patched_scenario e.Triage.Corpus.e_scenario
             cand.Repair.Search.ca_patch)
      in
      let name = Dice.Signature.to_string target in
      check (o.Triage.Scenario.o_error = None) "patched replay of %s fails to set up" name;
      check
        (not (List.exists (Dice.Signature.equal target) o.Triage.Scenario.o_signatures))
        "patched replay of %s still reports it" name;
      check
        (List.for_all
           (fun s -> List.exists (Dice.Signature.equal s) sigs)
           o.Triage.Scenario.o_signatures)
        "patched replay of %s reports a new signature" name)
    c.c_verified

(* The traced corpus pass: replay, localize and search timed apart.
   Search.run localizes again inside; its own time is reported net of
   the standalone localization. *)
let corpus_traced acc c =
  let outcome (e : Triage.Corpus.entry) =
    let target = e.Triage.Corpus.e_signature in
    let sigs = Traced.time acc "triage.replay" (fun () -> confirm e) in
    let loc_t = ref 0. in
    if repairable e then begin
      let t0 = wall () in
      (match Repair.Localize.run ~target e.Triage.Corpus.e_scenario with
      | Ok _ -> ()
      | Error msg -> check false "localize %s: %s" (Dice.Signature.to_string target) msg);
      loc_t := wall () -. t0;
      Traced.add_time acc "repair.localize" !loc_t;
      (* work the program does not do: left out of the traced total *)
      Traced.add_time acc "trace.duplicate" !loc_t
    end;
    let t0 = wall () in
    let r = Repair.Search.run ~target e.Triage.Corpus.e_scenario in
    Traced.add_time acc "repair.search" (Float.max 0. (wall () -. t0 -. !loc_t));
    (match r with
    | Ok o ->
        Traced.bump acc "repair.candidates" (List.length o.Repair.Search.re_candidates)
    | Error _ -> ());
    outcome_label e sigs (repair_verdict r)
  in
  (List.sort compare (List.map outcome c.c_entries), List.length c.c_entries)

let corpus_repair =
  { name = "corpus-repair";
    setup_reps = 3;
    setup_batch = 1500;
    setup = corpus_setup;
    warm_up = false;
    pass = corpus_pass;
    final = corpus_final;
    describe =
      (fun c ->
        String.concat ", "
          (List.map
             (fun (e : Triage.Corpus.entry) ->
               Dice.Fault.class_to_string
                 e.Triage.Corpus.e_signature.Dice.Signature.sg_class)
             c.c_entries));
    traced = corpus_traced }

let all = [ W demo27; W gadget_wheel; W gr250; W corpus_repair ]
