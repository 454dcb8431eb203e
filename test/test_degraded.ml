(* Tests for the degraded-mode control loop: the circuit-breaker state
   machine (including probe-failure re-opening and heal hints), sustained
   adversity in the fault model (partitions, stragglers, storms), the
   zero-diff regression guard, deadline shedding with bounded staleness,
   determinism under a fixed seed, and the 25%-partition acceptance
   experiment. *)

module Rng = Dream_util.Rng
module Codec = Dream_util.Codec
module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Fault_model = Dream_fault.Fault_model
module Breaker = Dream_switch.Breaker
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller
module Scenario = Dream_workload.Scenario
module Experiment = Dream_sim.Experiment
module Degraded_mode = Dream_sim.Degraded_mode

(* ---- Breaker state machine ---- *)

let check_state msg expected br =
  Alcotest.(check string) msg (Breaker.state_to_string expected)
    (Breaker.state_to_string (Breaker.state br))

(* A breaker trips after 3 consecutive failures and stays open for 4
   epochs: the [threshold] and [cooldown] lines every checkpoint writes. *)
let fail_times br n =
  for _ = 1 to n do
    Breaker.record_failure br
  done

let epochs br n =
  for _ = 1 to n do
    Breaker.begin_epoch br
  done

let test_breaker_trips_at_threshold () =
  let br = Breaker.create () in
  check_state "fresh" Breaker.Closed br;
  fail_times br 2;
  check_state "below threshold" Breaker.Closed br;
  Alcotest.(check bool) "still allowing" true (Breaker.allow br);
  Breaker.record_failure br;
  check_state "third failure trips" Breaker.Open br;
  Alcotest.(check bool) "open blocks" false (Breaker.allow br)

let test_breaker_success_resets_failures () =
  let br = Breaker.create () in
  fail_times br 2;
  Breaker.record_success br;
  fail_times br 2;
  check_state "streak broken by success" Breaker.Closed br;
  Breaker.record_failure br;
  check_state "fresh streak of three trips" Breaker.Open br

let test_breaker_cooldown_and_probe () =
  let br = Breaker.create () in
  fail_times br 3;
  check_state "tripped" Breaker.Open br;
  epochs br 3;
  check_state "cooling down" Breaker.Open br;
  Breaker.begin_epoch br;
  check_state "cooldown elapsed" Breaker.Half_open br;
  Alcotest.(check bool) "half-open allows the probe" true (Breaker.allow br);
  Breaker.record_success br;
  check_state "probe success closes" Breaker.Closed br

let test_breaker_probe_failure_reopens () =
  let br = Breaker.create () in
  fail_times br 3;
  epochs br 4;
  check_state "probing" Breaker.Half_open br;
  Breaker.record_failure br;
  check_state "probe failure re-opens" Breaker.Open br;
  (* The re-opened breaker owes a full cooldown again. *)
  epochs br 3;
  check_state "cooling again" Breaker.Open br;
  Breaker.begin_epoch br;
  check_state "second probe window" Breaker.Half_open br

let test_breaker_failures_while_open_ignored () =
  let br = Breaker.create () in
  fail_times br 5;
  check_state "still open" Breaker.Open br;
  epochs br 4;
  check_state "cooldown unaffected by ignored failures" Breaker.Half_open br

let test_breaker_hint_probe () =
  let br = Breaker.create () in
  Breaker.hint_probe br;
  check_state "hint on closed is a no-op" Breaker.Closed br;
  fail_times br 3;
  check_state "tripped" Breaker.Open br;
  Breaker.hint_probe br;
  Breaker.begin_epoch br;
  check_state "hint skips the cooldown" Breaker.Half_open br

let test_breaker_codec_roundtrip () =
  let br = Breaker.create () in
  fail_times br 3;
  Breaker.begin_epoch br;
  let br' = Codec.decode Breaker.codec (Codec.encode Breaker.codec br) in
  check_state "state survives" (Breaker.state br) br';
  (* Same future: both cool down to the probe at the same epoch. *)
  epochs br 3;
  epochs br' 3;
  check_state "parsed breaker follows the same schedule" (Breaker.state br) br';
  (* An unknown state code is refused at its line, like any unknown code. *)
  let text = Codec.encode Breaker.codec br in
  let tampered =
    String.concat "\n"
      (List.map
         (fun l -> if String.starts_with ~prefix:"state " l then "state 7" else l)
         (String.split_on_char '\n' text))
  in
  match Codec.decode Breaker.codec tampered with
  | _ -> Alcotest.fail "state 7 accepted"
  | exception Codec.Parse_error e ->
    Alcotest.(check string) "refused at its line" "line 1: unknown breaker state 7"
      (Codec.error_to_string e)

(* ---- Sustained adversity in the fault model ---- *)

let quarter_spec seed =
  {
    Fault_model.zero with
    Fault_model.seed;
    partition_rate = 1.0;
    mean_partition = 6.0;
    partition_eligible = 1;
  }

let test_partition_only_eligible_groups () =
  let fm = Fault_model.create (quarter_spec 3) ~num_switches:8 in
  for _ = 1 to 50 do
    ignore (Fault_model.begin_epoch fm);
    for sw = 0 to 7 do
      if sw mod 4 <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "switch %d never partitions" sw)
          false
          (Fault_model.is_partitioned fm sw)
    done;
    Alcotest.(check bool) "group-correlated" true
      (Fault_model.is_partitioned fm 0 = Fault_model.is_partitioned fm 4)
  done

let test_partition_schedule_deterministic () =
  let windows seed =
    let fm = Fault_model.create (quarter_spec seed) ~num_switches:8 in
    List.init 80 (fun _ ->
        ignore (Fault_model.begin_epoch fm);
        Fault_model.partitioned_count fm)
  in
  Alcotest.(check (list int)) "same seed, same windows" (windows 9) (windows 9);
  let fm = Fault_model.create (quarter_spec 9) ~num_switches:8 in
  let partitioned_epochs = ref 0 in
  for _ = 1 to 80 do
    ignore (Fault_model.begin_epoch fm);
    if Fault_model.partitioned_count fm > 0 then incr partitioned_epochs
  done;
  Alcotest.(check bool) "rate-1 partitions dominate" true (!partitioned_epochs > 40)

let test_stragglers_chosen_once () =
  let spec =
    {
      Fault_model.zero with
      Fault_model.seed = 5;
      straggler_fraction = 0.5;
      straggler_slowdown = 3.0;
    }
  in
  (* A straggler is a switch whose latency factor is not the unit one. *)
  let stragglers fm = List.init 8 (fun sw -> Fault_model.latency_factor fm sw <> 1.0) in
  let fm = Fault_model.create spec ~num_switches:8 in
  let chosen = stragglers fm in
  Alcotest.(check int) "half the fleet" 4 (List.length (List.filter Fun.id chosen));
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check (list bool)) "selection is stable across epochs" chosen (stragglers fm);
  List.iteri
    (fun sw straggler ->
      let f = Fault_model.latency_factor fm sw in
      if straggler then Alcotest.(check (float 1e-9)) "slowdown factor" 3.0 f
      else Alcotest.(check (float 1e-9)) "unit factor" 1.0 f)
    chosen;
  let fm' = Fault_model.create spec ~num_switches:8 in
  Alcotest.(check (list bool)) "same seed, same stragglers" chosen (stragglers fm')

(* ---- Controller in degraded mode ---- *)

let mk_controller ?(config = Config.default) ?(capacity = 128) ?(num_switches = 4)
    ?(strategy = Allocator.Dream Dream_allocator.default_config) () =
  Controller.create ~config ~strategy ~num_switches ~capacity

let degraded_mode c = Controller.breaker_states c <> [||]

(* The threshold and cooldown are build constants: a checkpoint pins each
   once, in its [build] section, and one holding any other value, 0
   included, is refused at that line. *)
let test_breaker_config_validated () =
  let magic = "dream-checkpoint v5" in
  let doc = Controller.snapshot (mk_controller ()) in
  let body = match Codec.unseal ~magic doc with Ok body -> body | Error e -> Alcotest.fail e in
  let refused key value expected =
    let tampered =
      String.concat "\n"
        (List.map
           (fun l -> if String.starts_with ~prefix:(key ^ " ") l then key ^ " " ^ value else l)
           (String.split_on_char '\n' body))
    in
    match Controller.restore (Codec.seal ~magic tampered) with
    | Ok _ -> Alcotest.failf "%s %s accepted" key value
    | Error e -> Alcotest.(check string) (key ^ " refused") expected e
  in
  refused "breaker_threshold" "0"
    {|line 9: field "breaker_threshold": expected the constant 3, got "0"|};
  refused "breaker_cooldown" "0"
    {|line 10: field "breaker_cooldown": expected the constant 4, got "0"|}

(* Staleness levels of all active tasks, ascending. *)
let staleness_levels c =
  List.filter_map (fun task_id -> Controller.staleness_of c ~task_id) (Controller.active_task_ids c)
  |> List.sort compare

let submit_task controller rng ~filter_index ~duration =
  let filter = Prefix.nth_descendant Prefix.root ~length:12 (filter_index * 53) in
  let num_switches = Controller.num_switches controller in
  let topology =
    Topology.create rng ~filter ~num_switches ~switches_per_task:(min 4 num_switches)
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
  in
  let generator =
    Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
  in
  Controller.submit controller ~spec ~topology
    ~source:(Dream_traffic.Source.of_generator generator)
    ~duration

type run_result = {
  summary : Metrics.summary;
  records : Metrics.record list;
  modelled_delays : (float * float) list;
}

let run_controller config =
  let bundle = Dream_obs.Telemetry.create () in
  let controller = mk_controller ~config:{ config with Config.telemetry = Some bundle } () in
  let rng = Rng.create 21 in
  for i = 0 to 7 do
    ignore (submit_task controller rng ~filter_index:i ~duration:25)
  done;
  Controller.run controller ~epochs:40;
  Controller.finalize controller;
  {
    summary = Controller.summary controller;
    records = Controller.records controller;
    modelled_delays =
      (let spans phase = Dream_obs.Trace.spans (Dream_obs.Telemetry.trace bundle) ~phase in
       List.combine (spans "model/fetch") (spans "model/save"));
  }

let test_degraded_zero_diff () =
  (* The acceptance guarantee: at adversity zero the full degraded-mode
     path — breakers armed, deadline scheduler sorting, shed decisions
     evaluated — must be byte-identical to the seed behaviour. *)
  let plain = run_controller Config.default in
  let armed =
    run_controller
      {
        Config.default with
        Config.faults = Some Fault_model.zero;
        degraded = Some Config.default_degraded;
      }
  in
  Alcotest.(check bool) "same records" true (plain.records = armed.records);
  Alcotest.(check bool) "same summary" true (plain.summary = armed.summary);
  Alcotest.(check bool) "same modelled delays" true (plain.modelled_delays = armed.modelled_delays);
  Alcotest.(check bool) "robustness counters all zero" true
    (armed.summary.Metrics.robustness = Metrics.no_faults);
  let adversity_zero =
    run_controller
      {
        Config.default with
        Config.faults = Some (Fault_model.adversity 0.0);
        degraded = Some Config.default_degraded;
      }
  in
  Alcotest.(check bool) "adversity 0 summary identical" true
    (plain.summary = adversity_zero.summary);
  Alcotest.(check bool) "adversity 0 records identical" true
    (plain.records = adversity_zero.records)

let adversity_config ?(level = 0.8) seed =
  {
    Config.default with
    Config.faults = Some (Fault_model.adversity ~seed level);
    degraded = Some Config.default_degraded;
  }

let test_degraded_deterministic () =
  let a = run_controller (adversity_config 5) in
  let b = run_controller (adversity_config 5) in
  Alcotest.(check bool) "same records" true (a.records = b.records);
  Alcotest.(check bool) "same summary" true (a.summary = b.summary);
  Alcotest.(check bool) "same modelled delays" true (a.modelled_delays = b.modelled_delays);
  let c = run_controller (adversity_config 6) in
  Alcotest.(check bool) "different seed diverges" true
    (a.records <> c.records || a.summary <> c.summary)

let test_breaker_surface () =
  let controller = mk_controller ~config:(adversity_config 7) () in
  Alcotest.(check bool) "degraded mode armed" true (degraded_mode controller);
  Alcotest.(check int) "one breaker per switch" (Controller.num_switches controller)
    (Array.length (Controller.breaker_states controller));
  let plain = mk_controller () in
  Alcotest.(check bool) "plain runs without breakers" false (degraded_mode plain);
  Alcotest.(check int) "no breakers outside degraded mode" 0
    (Array.length (Controller.breaker_states plain));
  (* Faults without a degraded config keep the plain retry loop too. *)
  let faults_only =
    mk_controller ~config:{ Config.default with Config.faults = Some (Fault_model.uniform 0.1) } ()
  in
  Alcotest.(check bool) "faults alone do not arm breakers" false
    (degraded_mode faults_only)

let test_deadline_sheds_with_bounded_staleness () =
  (* A deadline a fraction of one fetch round forces the scheduler to shed
     every epoch; bounded staleness must still push every task's fetch
     through within [Fetch.shed_max_staleness] epochs. *)
  let bound = Dream_core.Fetch.shed_max_staleness in
  let config =
    {
      Config.default with
      Config.faults = Some Fault_model.zero;
      degraded = Some { Config.deadline_fraction = 0.01 };
    }
  in
  let controller = mk_controller ~config () in
  let rng = Rng.create 33 in
  for i = 0 to 5 do
    ignore (submit_task controller rng ~filter_index:i ~duration:30)
  done;
  let max_seen = ref 0 in
  for _ = 1 to 30 do
    Controller.tick controller;
    List.iter (fun s -> max_seen := max !max_seen s) (staleness_levels controller)
  done;
  let rob = Controller.robustness controller in
  Alcotest.(check bool) "sheds happened" true (rob.Metrics.sheds > 0);
  Alcotest.(check bool) "staleness stayed within the bound"
    true (!max_seen <= bound);
  Alcotest.(check bool) "bounded staleness forced fetches through" true (!max_seen > 0);
  Controller.finalize controller

let test_storm_pending_surface () =
  let config =
    {
      Config.default with
      Config.faults =
        Some { Fault_model.zero with Fault_model.seed = 3; storm_rate = 1.0 };
      degraded = Some Config.default_degraded;
    }
  in
  let controller = mk_controller ~config () in
  Alcotest.(check int) "quiet before the first tick" 0 (Controller.storm_tasks_pending controller);
  Controller.tick controller;
  Alcotest.(check int) "storm surfaced to the driver" Fault_model.storm_size
    (Controller.storm_tasks_pending controller)

(* One seeded degraded-mode run whose breakers open, probe and close and
   whose deadline sheds, pinned by a digest of what it decides each
   epoch: breaker states, staleness levels and robustness tallies, the
   model/fetch spans' bits and the trace's breaker and shed events.
   Any change to the order of breaker steps, sheds, decays or staleness
   updates moves it. *)
let test_degraded_run_pinned () =
  let bundle = Dream_obs.Telemetry.create () in
  let config =
    {
      (adversity_config ~level:1.0 11) with
      Config.degraded = Some { Config.deadline_fraction = 0.02 };
      telemetry = Some bundle;
    }
  in
  let controller = mk_controller ~config () in
  let rng = Rng.create 29 in
  for i = 0 to 7 do
    ignore (submit_task controller rng ~filter_index:i ~duration:40)
  done;
  let b = Buffer.create 4096 and max_seen = ref 0 in
  for _ = 1 to 60 do
    Controller.tick controller;
    max_seen := max !max_seen (Controller.max_staleness controller);
    Buffer.add_string b
      (String.concat ","
         (Array.to_list
            (Array.map Breaker.state_to_string (Controller.breaker_states controller))));
    List.iter (fun s -> Buffer.add_string b (Printf.sprintf " %d" s))
      (staleness_levels controller);
    Buffer.add_string b (Marshal.to_string (Controller.robustness controller) []);
    Buffer.add_char b '\n'
  done;
  List.iter
    (fun ms -> Buffer.add_string b (Printf.sprintf "%Lx\n" (Int64.bits_of_float ms)))
    (Dream_obs.Trace.spans (Dream_obs.Telemetry.trace bundle) ~phase:"model/fetch");
  let count name =
    List.length
      (List.filter
         (function
           | Dream_obs.Trace.Event { name = n; _ } -> n = name
           | Dream_obs.Trace.Span _ -> false)
         (Dream_obs.Trace.items (Dream_obs.Telemetry.trace bundle)))
  in
  List.iter
    (function
      | Dream_obs.Trace.Event { epoch; name; fields }
        when name = "shed" || String.starts_with ~prefix:"breaker_" name ->
        Buffer.add_string b
          (Dream_obs.Json.to_string
             (Dream_obs.Json.encode Dream_obs.Trace.item_json
                (Dream_obs.Trace.Event { epoch; name; fields })));
        Buffer.add_char b '\n'
      | Dream_obs.Trace.Event _ | Dream_obs.Trace.Span _ -> ())
    (Dream_obs.Trace.items (Dream_obs.Telemetry.trace bundle));
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " happened") true (count name > 0))
    [ "breaker_open"; "breaker_probe"; "breaker_close"; "shed"; "partition_heal" ];
  (* Fetch counts a trip or a probe as it traces it: the tallies are the
     one count of breaker transitions. *)
  let rob = Controller.robustness controller in
  Alcotest.(check int) "breaker_opens = breaker_open events" (count "breaker_open")
    rob.Metrics.breaker_opens;
  Alcotest.(check int) "breaker_probes = breaker_probe events" (count "breaker_probe")
    rob.Metrics.breaker_probes;
  (* Partitions keep tasks stale past the shed bound, so the decay stop runs. *)
  Alcotest.(check bool) "staleness passed the bound" true
    (!max_seen > Dream_core.Fetch.shed_max_staleness);
  Alcotest.(check string) "digest" "680cb636606ed7adee9a728d56c3a492" (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- Checkpointing degraded state ---- *)

let test_snapshot_restores_breakers () =
  let config = adversity_config ~level:1.0 17 in
  let controller = mk_controller ~config () in
  let rng = Rng.create 41 in
  for i = 0 to 5 do
    ignore (submit_task controller rng ~filter_index:i ~duration:30)
  done;
  Controller.run controller ~epochs:25;
  let doc = Controller.snapshot controller in
  match Controller.restore doc with
  | Error msg -> Alcotest.failf "restore failed: %s" msg
  | Ok restored ->
    Alcotest.(check bool) "degraded mode survives restore" true
      (degraded_mode restored);
    let states c =
      Array.to_list (Array.map Breaker.state_to_string (Controller.breaker_states c))
    in
    Alcotest.(check (list string)) "breaker states survive" (states controller) (states restored);
    Alcotest.(check (list int)) "staleness levels survive"
      (staleness_levels controller)
      (staleness_levels restored);
    (* Bit-identical future: the restored controller replays the same
       degraded-mode schedule. *)
    Controller.run controller ~epochs:15;
    Controller.run restored ~epochs:15;
    Controller.finalize controller;
    Controller.finalize restored;
    Alcotest.(check bool) "same summary after resume" true
      (Controller.summary controller = Controller.summary restored);
    Alcotest.(check (list string)) "same breaker states after resume" (states controller)
      (states restored)

(* ---- The degraded-mode sweep and its acceptance pair ---- *)

let small =
  {
    Scenario.default with
    Scenario.num_switches = 4;
    switches_per_task = 4;
    num_tasks = 12;
    arrival_window = 60;
    mean_duration = 40;
    min_duration = 20;
    total_epochs = 120;
    capacity = 512;
  }

let test_quarter_partition_acceptance () =
  (* The figure's own scale: the tiny [small] scenario has too few tasks
     for the 15% budget to be meaningful (one task's fate swings the mean
     by more than the whole budget). *)
  let metrics, text = Fixtures.printed (fun () -> Degraded_mode.run ~quick:true) in
  let metric = Fixtures.metric metrics in
  Alcotest.(check (float 0.0)) "never exceeds the epoch deadline" 0.0
    (metric "deadline_violations");
  (* part-ep, the last column, of the printed partition-25% row. *)
  let partition_row row = List.nth_opt row 1 = Some "partition-25%" in
  let partition_epochs =
    match List.find_opt partition_row (Fixtures.rows text) with
    | Some row -> int_of_string (List.hd (List.rev row))
    | None -> Alcotest.fail "no partition-25% row printed"
  in
  Alcotest.(check bool) "partition epochs actually happened" true (partition_epochs > 0);
  let baseline = metric "baseline_satisfaction" and partition = metric "partition_satisfaction" in
  Alcotest.(check bool)
    (Printf.sprintf "satisfaction %.1f within 15%% of baseline %.1f" partition baseline)
    true
    (partition >= 0.85 *. baseline)

let test_sweep_zero_level_parity () =
  (* In the sweep itself, level 0 degraded and baseline points must be the
     same run byte for byte. *)
  let points =
    Degraded_mode.sweep ~degraded:Config.default_degraded ~levels:[ 0.0 ] small
      Experiment.dream_strategy
  in
  match points with
  | [ degraded; baseline ] ->
    Alcotest.(check bool) "identical summaries" true
      (degraded.Degraded_mode.summary = baseline.Degraded_mode.summary);
    Alcotest.(check int) "no sheds" 0
      degraded.Degraded_mode.summary.Metrics.robustness.Metrics.sheds;
    Alcotest.(check int) "no staleness" 0 degraded.Degraded_mode.max_staleness
  | _ -> Alcotest.fail "sweep must yield one degraded and one baseline point per level"

let () =
  Alcotest.run "dream.degraded"
    [
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_breaker_trips_at_threshold;
          Alcotest.test_case "success resets failures" `Quick test_breaker_success_resets_failures;
          Alcotest.test_case "cooldown then probe" `Quick test_breaker_cooldown_and_probe;
          Alcotest.test_case "probe failure re-opens" `Quick test_breaker_probe_failure_reopens;
          Alcotest.test_case "failures while open ignored" `Quick
            test_breaker_failures_while_open_ignored;
          Alcotest.test_case "heal hint skips cooldown" `Quick test_breaker_hint_probe;
          Alcotest.test_case "config validated" `Quick test_breaker_config_validated;
          Alcotest.test_case "codec roundtrip" `Quick test_breaker_codec_roundtrip;
        ] );
      ( "adversity-model",
        [
          Alcotest.test_case "only eligible groups partition" `Quick
            test_partition_only_eligible_groups;
          Alcotest.test_case "partition schedule deterministic" `Quick
            test_partition_schedule_deterministic;
          Alcotest.test_case "stragglers chosen once" `Quick test_stragglers_chosen_once;
        ] );
      ( "controller",
        [
          Alcotest.test_case "zero-diff at adversity 0" `Quick test_degraded_zero_diff;
          Alcotest.test_case "deterministic under fixed seed" `Quick test_degraded_deterministic;
          Alcotest.test_case "breaker surface" `Quick test_breaker_surface;
          Alcotest.test_case "deadline sheds, staleness bounded" `Quick
            test_deadline_sheds_with_bounded_staleness;
          Alcotest.test_case "storms surfaced to the driver" `Quick test_storm_pending_surface;
          Alcotest.test_case "degraded run pinned" `Quick test_degraded_run_pinned;
          Alcotest.test_case "snapshot restores breakers" `Quick test_snapshot_restores_breakers;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "25% partition acceptance" `Slow test_quarter_partition_acceptance;
          Alcotest.test_case "level-0 parity" `Slow test_sweep_zero_level_parity;
        ] );
    ]
