(* Tests for dream.fault and the failure-tolerant controller: fault-model
   determinism, the zero-spec regression guard (fault plumbing must not
   change fault-free results), fault-path determinism, and graceful
   survival of an aggressively faulty run. *)

module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller
module Gc_stats = Dream_obs.Gc_stats
module Delay_model = Dream_switch.Delay_model
module Task = Dream_tasks.Task
module Runtime = Dream_core.Runtime
module Fetch = Dream_core.Fetch

(* ---- Fault_model ---- *)

let aggressive seed =
  {
    Fault_model.zero with
    Fault_model.seed;
    crash_rate = 0.15;
    fetch_timeout_rate = 0.3;
    counter_loss_rate = 0.1;
    install_failure_rate = 0.1;
    perturb_stddev = 0.05;
  }

let schedule spec ~num_switches ~epochs =
  let fm = Fault_model.create spec ~num_switches in
  let events = ref [] in
  for _ = 1 to epochs do
    let e = Fault_model.begin_epoch fm in
    events := (e.Fault_model.crashed, e.Fault_model.recovered) :: !events
  done;
  List.rev !events

let test_model_deterministic () =
  let a = schedule (aggressive 5) ~num_switches:8 ~epochs:100 in
  let b = schedule (aggressive 5) ~num_switches:8 ~epochs:100 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = schedule (aggressive 6) ~num_switches:8 ~epochs:100 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_model_crash_recovery_cycle () =
  let spec = { (aggressive 11) with Fault_model.crash_rate = 0.3 } in
  let fm = Fault_model.create spec ~num_switches:4 in
  let crashes = ref 0 and recoveries = ref 0 in
  for _ = 1 to 200 do
    let e = Fault_model.begin_epoch fm in
    crashes := !crashes + List.length e.Fault_model.crashed;
    recoveries := !recoveries + List.length e.Fault_model.recovered;
    List.iter
      (fun sw -> Alcotest.(check bool) "crashed switch is down" true (Fault_model.is_down fm sw))
      e.Fault_model.crashed;
    List.iter
      (fun sw ->
        Alcotest.(check bool) "recovered switch is up" false (Fault_model.is_down fm sw))
      e.Fault_model.recovered
  done;
  Alcotest.(check bool) (Printf.sprintf "crashes occur (%d)" !crashes) true (!crashes > 10);
  Alcotest.(check bool) "most crashes recover" true (!recoveries > !crashes / 2)

let test_model_zero_is_silent () =
  let fm = Fault_model.create Fault_model.zero ~num_switches:4 in
  for _ = 1 to 50 do
    let e = Fault_model.begin_epoch fm in
    Alcotest.(check bool) "no crashes" true (e.Fault_model.crashed = []);
    for sw = 0 to 3 do
      Alcotest.(check bool) "up" false (Fault_model.is_down fm sw);
      Alcotest.(check bool) "no timeout" false (Fault_model.fetch_times_out fm sw);
      Alcotest.(check bool) "no install failure" false (Fault_model.install_fails fm sw);
      let keys = [| 3; 5; 9 |] and vols = [| 42.5; -0.0; 1e300 |] in
      Alcotest.(check int) "no loss" 3 (Fault_model.degrade fm sw ~keys ~vols 3);
      Alcotest.(check (array int)) "keys in place" [| 3; 5; 9 |] keys;
      Alcotest.(check (array int64)) "perturb is identity"
        (Array.map Int64.bits_of_float [| 42.5; -0.0; 1e300 |])
        (Array.map Int64.bits_of_float vols)
    done
  done

let test_model_validation () =
  let raises f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Fault_model.uniform 1.5);
  raises (fun () -> Fault_model.uniform (-0.1));
  raises (fun () -> Fault_model.create { Fault_model.zero with Fault_model.crash_rate = 2.0 } ~num_switches:4);
  raises (fun () -> Fault_model.create Fault_model.zero ~num_switches:0)

(* ---- Counter loss and perturbation: the column pass against its oracle ---- *)

(* One batch: a stream seed, the two rates and [n] readings in arrays with
   a little slack past [n], compared too.  The rates
   and volumes lean on the edges: loss 0 and 1, stddev 0, stddevs large
   enough to push volumes below zero, and volumes 0.0, -0.0 and 1e300. *)
let gen_batch =
  QCheck.Gen.(
    let rate =
      frequency
        [ (2, return 0.0); (1, return 1.0); (1, return 0.05); (3, float_bound_inclusive 1.0) ]
    in
    let stddev =
      frequency [ (2, return 0.0); (1, return 0.005); (3, float_bound_inclusive 3.0) ]
    in
    let vol =
      frequency
        [ (1, return 0.0); (1, return (-0.0)); (1, return 1e300); (6, float_bound_inclusive 1e6) ]
    in
    let* seed = int_bound 1_000_000 in
    let* loss = rate in
    let* stddev = stddev in
    let* n = frequency [ (1, return 0); (6, int_range 1 60) ] in
    let* slack = int_bound 3 in
    let* vols = array_size (return (n + slack)) vol in
    return (seed, loss, stddev, n, vols))

let print_batch (seed, loss, stddev, n, vols) =
  Printf.sprintf "seed=%d loss=%h stddev=%h n=%d vols=[%s]" seed loss stddev n
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") vols)))

(* A generator's copy, read back from its checkpoint lines. *)
let copy rng = Dream_util.Codec.(decode (Rng.codec "s") (encode (Rng.codec "s") rng))

let prop_thin_jitter_matches_oracle =
  QCheck.Test.make ~name:"thin_jitter = per-counter lose/perturb loop (bitwise, same draws)"
    ~count:1000 (QCheck.make ~print:print_batch gen_batch)
    (fun (seed, loss, stddev, n, vols) ->
      let rng = Rng.create seed in
      let keys = Array.init (Array.length vols) (fun i -> (i * 7) + 1) in
      let run f =
        let rng = copy rng and keys = Array.copy keys and vols = Array.copy vols in
        let kept = f rng ~loss ~stddev ~keys ~vols n in
        (kept, keys, Array.map Int64.bits_of_float vols, Dream_util.Codec.encode (Rng.codec "s") rng)
      in
      run Rng.thin_jitter = run Reference_fault.thin_jitter)

(* ---- The switch's data plane ---- *)

let test_data_plane_transparent_without_faults () =
  let sw = Switch.create ~id:0 ~capacity:16 () in
  Alcotest.(check bool) "never down" false (Switch.down sw);
  let p = Prefix.nth_descendant Prefix.root ~length:8 3 in
  let col = Tcam.rules (Switch.tcam sw) ~owner:1 in
  (match Switch.install_at sw col 0 (Prefix.key p) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install must succeed");
  Alcotest.(check int) "rule landed" 1 (Tcam.used_by (Switch.tcam sw) ~owner:1);
  match Switch.remove_at sw col 0 with
  | Ok () -> Alcotest.(check int) "rule gone" 0 (Tcam.used_by (Switch.tcam sw) ~owner:1)
  | Error (`Down | `Unreachable) -> Alcotest.fail "remove must reach the switch"

let test_data_plane_down_refuses () =
  let fm = Fault_model.create Fault_model.zero ~num_switches:1 in
  Fault_model.schedule fm ~at:1 (Fault_model.Crash { switch = 0; downtime = 100 });
  let sw = Switch.create ~faults:fm ~id:0 ~capacity:16 () in
  let p = Prefix.nth_descendant Prefix.root ~length:8 1 in
  let col = Tcam.rules (Switch.tcam sw) ~owner:1 in
  (match Switch.install_at sw col 0 (Prefix.key p) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install before crash must succeed");
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check bool) "down after crash" true (Switch.down sw);
  let q = Prefix.nth_descendant Prefix.root ~length:8 2 in
  (match Switch.install_at sw col 1 (Prefix.key q) with
  | Error `Down -> ()
  | Ok () | Error _ -> Alcotest.fail "install on a down switch must refuse");
  match Switch.remove_at sw col 0 with
  | Error (`Down | `Unreachable) -> ()
  | Ok () -> Alcotest.fail "remove on a down switch must refuse"

(* Minor words a faulty read allocates: none, since its result is the
   count (or a negative code), and nothing per counter.  A switch holding
   1,000 rules is read under 5% counter loss and 0.005 perturbation, 50
   times to warm up and then 200 times measured one by one, net of an
   empty measured region.  (Before the draws became one column pass, the
   same reads cost ~11.5 words a counter; before the result became an int,
   two words a read for its [Ok] block.) *)
let test_faulty_read_allocates_its_result () =
  let spec =
    { Fault_model.zero with Fault_model.counter_loss_rate = 0.05; perturb_stddev = 0.005 }
  in
  let fm = Fault_model.create spec ~num_switches:1 in
  let n = 1000 in
  let sw = Switch.create ~faults:fm ~id:0 ~capacity:n () in
  let rules = List.init n (fun i -> Prefix.nth_descendant Prefix.root ~length:24 i) in
  let col = Tcam.rules (Switch.tcam sw) ~owner:1 in
  List.iteri
    (fun i p ->
      match Switch.install_at sw col i (Prefix.key p) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "install must succeed")
    rules;
  let aggregate =
    Dream_traffic.Aggregate.of_flows
      (List.mapi
         (fun i p -> Dream_traffic.Flow.make ~addr:(Prefix.first_address p) ~volume:(float_of_int (i + 1)))
         rules)
  in
  let keys = Array.make n 0 and vols = Array.make n 0.0 in
  let survivors = ref 0 in
  let read () =
    let kept = Switch.read sw col aggregate ~keys ~vols in
    if kept < 0 then Alcotest.fail "read must succeed";
    survivors := !survivors + kept
  in
  let minor_words f =
    let before = Gc_stats.read Gc_stats.real in
    f ();
    let after = Gc_stats.read Gc_stats.real in
    (Gc_stats.sub after before).Gc_stats.minor_words
  in
  for _ = 1 to 50 do
    read ()
  done;
  survivors := 0;
  let empty = minor_words ignore in
  let words = ref 0.0 in
  for _ = 1 to 200 do
    words := !words +. (minor_words read -. empty)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "counters lost and kept (%d of %d kept)" !survivors (200 * n))
    true
    (!survivors > 0 && !survivors < 200 * n);
  Alcotest.(check (float 0.0)) "minor words over 200 reads" 0.0 !words

(* ---- Controller under faults ---- *)

let mk_controller ?(config = Config.default) ?(capacity = 128) ?(num_switches = 4)
    ?(strategy = Allocator.Dream Dream_allocator.default_config) () =
  Controller.create ~config ~strategy ~num_switches ~capacity

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
  modelled_delays : (float * float) list; (* the model/fetch and model/save spans *)
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

let test_zero_spec_identical_to_no_faults () =
  (* Regression guard: the fault plumbing must not change fault-free
     behaviour.  A zero-rate spec exercises the fault-aware code path end
     to end and must still be byte-identical to running with no fault
     model at all. *)
  let plain = run_controller Config.default in
  let zeroed = run_controller { Config.default with Config.faults = Some Fault_model.zero } in
  Alcotest.(check bool) "same records" true (plain.records = zeroed.records);
  Alcotest.(check bool) "same summary" true (plain.summary = zeroed.summary);
  Alcotest.(check bool) "same modelled delays" true
    (plain.modelled_delays = zeroed.modelled_delays);
  Alcotest.(check bool) "robustness counters all zero" true
    (zeroed.summary.Metrics.robustness = Metrics.no_faults)

let faulty_config fault_seed =
  { Config.default with Config.faults = Some (aggressive fault_seed) }

let test_fault_path_deterministic () =
  let a = run_controller (faulty_config 5) in
  let b = run_controller (faulty_config 5) in
  Alcotest.(check bool) "same records" true (a.records = b.records);
  Alcotest.(check bool) "same summary" true (a.summary = b.summary);
  Alcotest.(check bool) "same modelled delays" true (a.modelled_delays = b.modelled_delays);
  let c = run_controller (faulty_config 6) in
  Alcotest.(check bool) "different fault seed diverges" true
    (a.records <> c.records || a.summary <> c.summary)

let test_faulty_run_survives_gracefully () =
  let config = faulty_config 42 in
  let controller = mk_controller ~config ~capacity:256 () in
  let rng = Rng.create 33 in
  for i = 0 to 5 do
    ignore (submit_task controller rng ~filter_index:i ~duration:60)
  done;
  for _ = 1 to 70 do
    Controller.tick controller;
    (* Capacity safety holds even while switches crash and recover. *)
    Array.iter
      (fun sw ->
        Alcotest.(check bool) "used <= capacity" true
          (Tcam.used (Switch.tcam sw) <= Tcam.capacity (Switch.tcam sw)))
      (Controller.switches controller);
    (* Active tasks keep reporting from the healthy switches. *)
    List.iter
      (fun id ->
        match Controller.smoothed_accuracy controller ~task_id:id with
        | Some a -> Alcotest.(check bool) "accuracy in range" true (a >= 0.0 && a <= 1.0)
        | None -> Alcotest.fail "active task lost its accuracy")
      (Controller.active_task_ids controller)
  done;
  Controller.finalize controller;
  let r = Controller.robustness controller in
  Alcotest.(check bool) (Printf.sprintf "crashes (%d)" r.Metrics.crashes) true (r.Metrics.crashes > 0);
  Alcotest.(check bool) "switch-down epochs" true (r.Metrics.switch_down_epochs > 0);
  Alcotest.(check bool) "fetch timeouts" true (r.Metrics.fetch_timeouts > 0);
  Alcotest.(check bool) "retries" true (r.Metrics.fetch_retries > 0);
  Alcotest.(check bool) "stale-counter epochs" true (r.Metrics.stale_epochs > 0);
  Alcotest.(check bool) "counters lost" true (r.Metrics.counters_lost > 0);
  Alcotest.(check bool) "install failures" true (r.Metrics.install_failures > 0);
  Alcotest.(check bool) "recovery reinstalls" true (r.Metrics.recovery_reinstalls > 0);
  (* The summary carries the same counters. *)
  let s = Controller.summary controller in
  Alcotest.(check bool) "summary exposes robustness" true
    (s.Metrics.robustness = r && r <> Metrics.no_faults)

let test_down_switches_quarantined () =
  (* Crash-heavy run: whenever a switch is down, no surviving task may
     have rules installed on it (its TCAM was wiped and the controller
     must not reinstall until recovery). *)
  let spec =
    { Fault_model.zero with Fault_model.seed = 13; crash_rate = 0.2 }
  in
  let config = { Config.default with Config.faults = Some spec } in
  let controller = mk_controller ~config ~capacity:128 () in
  let rng = Rng.create 51 in
  for i = 0 to 3 do
    ignore (submit_task controller rng ~filter_index:i ~duration:80)
  done;
  let saw_down = ref false in
  for _ = 1 to 80 do
    Controller.tick controller;
    match Controller.faults controller with
    | None -> Alcotest.fail "fault model must be live"
    | Some fm ->
      Array.iter
        (fun sw ->
          if Fault_model.is_down fm (Switch.id sw) then begin
            saw_down := true;
            Alcotest.(check int) "down switch holds no rules" 0 (Tcam.used (Switch.tcam sw))
          end)
        (Controller.switches controller)
  done;
  Alcotest.(check bool) "scenario exercised downtime" true !saw_down

(* ---- degraded paths ---- *)

let test_stale_decay_bounds () =
  (* The exact contract the controller's stale-counter path relies on:
     decay scales the smoothed accuracy by the factor, compounds
     multiplicatively, and never leaves [0, 1].  Before any estimate it is
     a no-op: the smoothed accuracy stays at its optimistic default
     instead of collapsing. *)
  let factor = 0.9 in
  let rng = Rng.create 9 in
  let filter = Prefix.nth_descendant Prefix.root ~length:12 7 in
  let topology = Topology.create rng ~filter ~num_switches:2 ~switches_per_task:2 in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
  in
  let storage = Dream_tasks.Storage.create () in
  let task = Dream_tasks.Task.create ~id:1 ~spec ~topology ~storage () in
  Dream_tasks.Task.decay_accuracy task ~bit:0 ~factor;
  Alcotest.(check (float 1e-9)) "no-op before the first estimate" 1.0
    (Dream_tasks.Task.smoothed_global task);
  Alcotest.(check bool) "switch-level accuracy bounded" true
    (let overall = Array.make 2 0.0 and used = Array.make 2 0 in
     Dream_tasks.Task.allocator_view task ~overall ~used ~pos:0 ~num_switches:2;
     let a = overall.(Topology.switch_of_bit topology 0) in
     a >= 0.0 && a <= 1.0);
  let module Accuracy = Dream_tasks.Accuracy in
  let estimate = Accuracy.create 2 in
  estimate.(Accuracy.global) <- 0.8;
  Dream_tasks.Task.smooth task estimate;
  Dream_tasks.Task.decay_accuracy task ~bit:0 ~factor;
  Alcotest.(check (float 1e-9)) "one decay scales by the factor" (0.8 *. factor)
    (Dream_tasks.Task.smoothed_global task);
  for _ = 1 to 9 do
    Dream_tasks.Task.decay_accuracy task ~bit:0 ~factor
  done;
  Alcotest.(check (float 1e-9)) "ten decays compound" (0.8 *. (factor ** 10.0))
    (Dream_tasks.Task.smoothed_global task);
  Alcotest.(check bool) "never negative" true (Dream_tasks.Task.smoothed_global task >= 0.0)

let test_stale_run_decay_lowers_accuracy () =
  (* The allocator reads a task's per-switch smoothed accuracies
     ([Task.allocator_view]).  Under a fault model, each round in which a
     switch goes unheard scales that switch's value by
     [Fault_model.stale_decay] and leaves the task's other switches alone:
     the degraded visibility reaches the allocator, compounding once per
     stale round. *)
  let num_switches = 4 in
  let fetch =
    let config = { Config.default with Config.faults = Some Fault_model.zero } in
    let registry = Dream_obs.Registry.create () in
    Fetch.create ~config
      ~switches:(Switch.network ~num_switches ~capacity:64 ())
      ~breakers:None
      ~faults:(Some (Fault_model.create Fault_model.zero ~num_switches))
      ~tallies:(Metrics.Tallies.of_registry registry) ~registry ~trace:None
  in
  (* A task that has estimated once, on traffic with no heavy hitter, so
     every switch it sees reads accuracy 1.0. *)
  let filter = Prefix.of_string "10.1.0.0/24" in
  let topology = Topology.create (Rng.create 1) ~filter ~num_switches ~switches_per_task:2 in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:1e9 ()
  in
  let data = Dream_traffic.Epoch_data.of_flows ~epoch:0 [] in
  let r =
    Runtime.create ~pool:(Runtime.pool ()) ~config:Config.default ~id:1 ~spec ~topology
      ~source:(Dream_traffic.Source.replay [| data |]) ~duration:10 ~arrived_at:0
  in
  Task.read_traffic r.Runtime.task data;
  Task.smooth r.Runtime.task (Task.estimate r.Runtime.task ~epoch:0);
  let view () =
    let overall = Array.make num_switches 0.0 and used = Array.make num_switches 0 in
    Task.allocator_view r.Runtime.task ~overall ~used ~pos:0 ~num_switches;
    overall
  in
  Alcotest.(check (array (float 0.0))) "every switch reads 1.0" (Array.make num_switches 1.0)
    (view ());
  let stale = Topology.switch_of_bit topology 0 in
  let expected = ref 1.0 in
  for _ = 1 to 3 do
    Fetch.bound_staleness fetch r 1 (* bit 0: every topology has it *);
    expected := !expected *. Fault_model.stale_decay;
    Alcotest.(check (array (float 0.0))) "only the stale switch decays"
      (Array.init num_switches (fun sw -> if sw = stale then !expected else 1.0))
      (view ())
  done;
  Alcotest.(check bool) "the allocator's signal is lower" true (!expected < 1.0)

let test_quarantine_divide_merge_reinstall_roundtrip () =
  (* Crash-heavy run audited after every tick: quarantine must zero a
     down switch, divide-and-merge must reconfigure onto the healthy ones,
     and recovery must reinstall the full rule set — all without the
     installed state ever diverging from the configured counters. *)
  let spec =
    { Fault_model.zero with Fault_model.seed = 13; crash_rate = 0.15 }
  in
  let config = { Config.default with Config.faults = Some spec } in
  let controller = mk_controller ~config ~capacity:256 () in
  let rng = Rng.create 51 in
  for i = 0 to 5 do
    ignore (submit_task controller rng ~filter_index:i ~duration:60)
  done;
  let violations = ref 0 in
  for _ = 1 to 70 do
    Controller.tick controller;
    violations := !violations + List.length (Controller.check_invariants_now controller)
  done;
  Controller.finalize controller;
  let r = Controller.robustness controller in
  Alcotest.(check bool) "switches crashed" true (r.Metrics.crashes > 0);
  Alcotest.(check bool) "switches recovered" true (r.Metrics.recoveries > 0);
  Alcotest.(check bool) "recovery reinstalled rules" true (r.Metrics.recovery_reinstalls > 0);
  Alcotest.(check int) "round trip never violated an invariant" 0 !violations

let test_retry_budget_exhaustion_within_one_epoch () =
  (* Every fetch times out: the controller must abandon the fetch within
     the epoch (bounded retries, a recorded failure) instead of retrying
     forever. *)
  let spec = { Fault_model.zero with Fault_model.seed = 3; fetch_timeout_rate = 1.0 } in
  let config = { Config.default with Config.faults = Some spec } in
  let controller = mk_controller ~config ~num_switches:1 () in
  let rng = Rng.create 5 in
  ignore (submit_task controller rng ~filter_index:0 ~duration:20);
  (* Epoch 0 installs the first rules; epoch 1 is the first fetch. *)
  Controller.tick controller;
  let before = Controller.robustness controller in
  Controller.tick controller;
  let after = Controller.robustness controller in
  Alcotest.(check bool) "fetch timed out" true
    (after.Metrics.fetch_timeouts > before.Metrics.fetch_timeouts);
  Alcotest.(check bool) "fetch abandoned within the epoch" true
    (after.Metrics.fetch_failures > before.Metrics.fetch_failures);
  (* One task on one switch makes one fetch an epoch.  Retry [k] backs
     off [rtt * 2^k], so [n] retries spend [rtt * (2^n - 1)] of the
     budget: 500 ms over a 0.25 ms RTT allows 10. *)
  let budget = Fault_model.retry_budget_fraction *. Delay_model.epoch_ms in
  let bound = int_of_float (Float.log2 ((budget /. Delay_model.rtt_ms) +. 1.0)) in
  Alcotest.(check int) "retries bounded by the budget" bound
    (after.Metrics.fetch_retries - before.Metrics.fetch_retries)

(* ---- input validation ---- *)

let test_controller_validates_inputs () =
  let raises f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  let strategy = Allocator.Dream Dream_allocator.default_config in
  raises (fun () ->
      Controller.create ~config:Config.default ~strategy ~num_switches:0 ~capacity:128);
  raises (fun () ->
      Controller.create ~config:Config.default ~strategy ~num_switches:(-3) ~capacity:128);
  raises (fun () ->
      Controller.create ~config:Config.default ~strategy ~num_switches:4 ~capacity:0);
  raises (fun () -> Switch.network ~num_switches:0 ~capacity:64 ());
  raises (fun () -> Switch.network ~num_switches:4 ~capacity:(-1) ())

let () =
  Alcotest.run "dream.fault"
    [
      ( "fault-model",
        [
          Alcotest.test_case "deterministic schedules" `Quick test_model_deterministic;
          Alcotest.test_case "crash/recovery cycle" `Quick test_model_crash_recovery_cycle;
          Alcotest.test_case "zero spec injects nothing" `Quick test_model_zero_is_silent;
          Alcotest.test_case "spec validation" `Quick test_model_validation;
          QCheck_alcotest.to_alcotest prop_thin_jitter_matches_oracle;
        ] );
      ( "data-plane",
        [
          Alcotest.test_case "transparent without faults" `Quick
            test_data_plane_transparent_without_faults;
          Alcotest.test_case "down switch refuses operations" `Quick test_data_plane_down_refuses;
          Alcotest.test_case "a faulty read allocates only its result" `Quick
            test_faulty_read_allocates_its_result;
        ] );
      ( "controller",
        [
          Alcotest.test_case "zero spec identical to no faults" `Quick
            test_zero_spec_identical_to_no_faults;
          Alcotest.test_case "fault path deterministic" `Quick test_fault_path_deterministic;
          Alcotest.test_case "faulty run survives gracefully" `Quick
            test_faulty_run_survives_gracefully;
          Alcotest.test_case "down switches quarantined" `Quick test_down_switches_quarantined;
          Alcotest.test_case "input validation" `Quick test_controller_validates_inputs;
        ] );
      ( "degraded-paths",
        [
          Alcotest.test_case "stale decay bounds" `Quick test_stale_decay_bounds;
          Alcotest.test_case "stale decay lowers the allocator's signal" `Quick
            test_stale_run_decay_lowers_accuracy;
          Alcotest.test_case "quarantine/divide-merge/reinstall round trip" `Quick
            test_quarantine_divide_merge_reinstall_roundtrip;
          Alcotest.test_case "retry budget exhausted within one epoch" `Quick
            test_retry_budget_exhaustion_within_one_epoch;
        ] );
    ]
