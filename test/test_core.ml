(* Tests for dream.core: metrics summaries and the controller end-to-end —
   admission, epochs, capacity safety, completion, drops, determinism, the
   modelled delay spans, and a warmed controller retaining nothing. *)

module Rng = Dream_util.Rng
module Prefix = Prefix_ops
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Switch_mask = Dream_traffic.Switch_mask
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller
module Runtime = Dream_core.Runtime
module Drop_policy = Dream_core.Drop_policy
module Codec = Dream_util.Codec
module Epoch_data = Dream_traffic.Epoch_data
module Source = Dream_traffic.Source
module Task = Dream_tasks.Task

(* A fair coin: the low bit of one draw. *)
let coin rng = Int64.logand (Rng.bits64 rng) 1L = 1L

(* ---- Metrics ---- *)

let record ?(kind = Task_spec.Heavy_hitter) ~id ~outcome ~satisfaction () =
  {
    Metrics.task_id = id;
    kind;
    outcome;
    arrived_at = 0;
    ended_at = 100;
    active_epochs = 100;
    satisfaction;
    mean_accuracy = satisfaction;
  }

let test_metrics_summary () =
  let records =
    [
      record ~id:0 ~outcome:Metrics.Completed ~satisfaction:1.0 ();
      record ~id:1 ~outcome:Metrics.Completed ~satisfaction:0.5 ();
      record ~id:2 ~outcome:Metrics.Dropped ~satisfaction:0.0 ();
      record ~id:3 ~outcome:Metrics.Rejected ~satisfaction:0.0 ();
    ]
  in
  let s = Metrics.summarize records in
  Alcotest.(check int) "submitted" 4 s.Metrics.submitted;
  Alcotest.(check int) "admitted" 3 s.Metrics.admitted;
  Alcotest.(check int) "rejected" 1 s.Metrics.rejected;
  Alcotest.(check int) "dropped" 1 s.Metrics.dropped;
  Alcotest.(check (float 1e-9)) "mean over admitted" 50.0 s.Metrics.mean_satisfaction;
  Alcotest.(check (float 1e-9)) "rejection pct" 25.0 s.Metrics.rejection_pct;
  Alcotest.(check (float 1e-9)) "drop pct" 25.0 s.Metrics.drop_pct

let test_metrics_empty () =
  let s = Metrics.summarize [] in
  Alcotest.(check int) "submitted" 0 s.Metrics.submitted;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.Metrics.mean_satisfaction

(* ---- Controller harness ---- *)

let mk_controller ?(config = Config.default) ?(capacity = 512) ?(num_switches = 4)
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

let test_controller_admits_and_completes () =
  let controller = mk_controller () in
  let rng = Rng.create 3 in
  (match submit_task controller rng ~filter_index:1 ~duration:30 with
  | `Admitted id -> Alcotest.(check int) "first id" 0 id
  | `Rejected -> Alcotest.fail "must admit into an empty network");
  Alcotest.(check int) "one active" 1 (Controller.active_tasks controller);
  Controller.run controller ~epochs:31;
  Alcotest.(check int) "task completed" 0 (Controller.active_tasks controller);
  match Controller.records controller with
  | [ r ] ->
    Alcotest.(check bool) "completed" true (r.Metrics.outcome = Metrics.Completed);
    Alcotest.(check int) "lived its duration" 30 r.Metrics.active_epochs;
    Alcotest.(check bool) "was satisfied most of the time" true (r.Metrics.satisfaction > 0.5)
  | _ -> Alcotest.fail "expected exactly one record"

let test_controller_capacity_never_violated () =
  let controller = mk_controller ~capacity:64 () in
  let rng = Rng.create 7 in
  for i = 0 to 9 do
    ignore (submit_task controller rng ~filter_index:i ~duration:40)
  done;
  for _ = 1 to 50 do
    Controller.tick controller;
    Array.iter
      (fun sw ->
        Alcotest.(check bool) "used <= capacity" true
          (Tcam.used (Switch.tcam sw) <= Tcam.capacity (Switch.tcam sw)))
      (Controller.switches controller)
  done

let test_controller_rejects_under_overload () =
  let controller = mk_controller ~capacity:32 () in
  let rng = Rng.create 11 in
  let rejected = ref 0 in
  for i = 0 to 19 do
    (match submit_task controller rng ~filter_index:i ~duration:60 with
    | `Rejected -> incr rejected
    | `Admitted _ -> ());
    Controller.tick controller;
    Controller.tick controller
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some rejections on tiny switches (%d)" !rejected)
    true (!rejected > 0)

let test_controller_reports_available () =
  let controller = mk_controller () in
  let rng = Rng.create 5 in
  (match submit_task controller rng ~filter_index:2 ~duration:30 with
  | `Admitted _ -> ()
  | `Rejected -> Alcotest.fail "must admit");
  Controller.run controller ~epochs:10;
  (match Controller.last_report controller ~task_id:0 with
  | Some report -> Alcotest.(check bool) "found heavy hitters" true (Dream_tasks.Report.size report > 0)
  | None -> Alcotest.fail "expected a report");
  match Controller.smoothed_accuracy controller ~task_id:0 with
  | Some a -> Alcotest.(check bool) "accuracy in range" true (a >= 0.0 && a <= 1.0)
  | None -> Alcotest.fail "expected accuracy"

let run_summary seed =
  let controller = mk_controller ~capacity:128 () in
  let rng = Rng.create seed in
  for i = 0 to 7 do
    ignore (submit_task controller rng ~filter_index:i ~duration:25)
  done;
  Controller.run controller ~epochs:40;
  Controller.finalize controller;
  Controller.summary controller

let test_controller_deterministic () =
  let a = run_summary 21 and b = run_summary 21 in
  Alcotest.(check (float 1e-9)) "same mean satisfaction" a.Metrics.mean_satisfaction
    b.Metrics.mean_satisfaction;
  Alcotest.(check int) "same rejections" a.Metrics.rejected b.Metrics.rejected

let test_controller_finalize_records_partial () =
  let controller = mk_controller () in
  let rng = Rng.create 9 in
  ignore (submit_task controller rng ~filter_index:1 ~duration:1000);
  Controller.run controller ~epochs:10;
  Controller.finalize controller;
  match Controller.records controller with
  | [ r ] ->
    Alcotest.(check int) "partial life recorded" 10 r.Metrics.active_epochs;
    Alcotest.(check bool) "completed outcome" true (r.Metrics.outcome = Metrics.Completed)
  | _ -> Alcotest.fail "expected one record"

let test_controller_delay_samples () =
  let bundle = Dream_obs.Telemetry.create () in
  let controller = mk_controller ~config:{ Config.default with Config.telemetry = Some bundle } () in
  let rng = Rng.create 13 in
  ignore (submit_task controller rng ~filter_index:1 ~duration:20);
  Controller.run controller ~epochs:20;
  List.iter
    (fun phase ->
      let spans = Dream_obs.Trace.spans (Dream_obs.Telemetry.trace bundle) ~phase in
      Alcotest.(check int) (phase ^ " span per epoch") 20 (List.length spans);
      List.iter
        (fun ms -> Alcotest.(check bool) (phase ^ " cost non-negative") true (ms >= 0.0))
        spans)
    [ "model/fetch"; "model/save" ];
  Alcotest.(check bool) "rules were installed" true (Controller.total_rules_installed controller > 0);
  Alcotest.(check bool) "counters were fetched" true
    (Controller.total_rules_fetched controller > Controller.total_rules_installed controller)

(* Four tasks that outlive the run, each replaying four pre-drawn epochs
   of its own traffic, on a controller without a bundle: once warm, every
   table has grown and a tick leaves nothing behind, so over N more ticks
   (a whole number of replay cycles) the controller's reachable words grow
   by fewer than N. *)
let test_controller_retains_nothing_per_epoch () =
  let controller = mk_controller () in
  let rng = Rng.create 17 in
  for i = 0 to 3 do
    let filter = Prefix.nth_descendant Prefix.root ~length:12 (i * 53) in
    let topology = Topology.create rng ~filter ~num_switches:4 ~switches_per_task:4 in
    let spec =
      Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
    in
    let generator =
      Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
    in
    let epochs = Array.init 4 (fun _ -> Generator.next generator) in
    match Controller.submit controller ~spec ~topology ~source:(Source.replay epochs) ~duration:1_000 with
    | `Admitted _ -> ()
    | `Rejected -> Alcotest.fail "a fixed task was rejected"
  done;
  Controller.run controller ~epochs:60;
  let before = Obj.reachable_words (Obj.repr controller) in
  let n = 100 in
  Controller.run controller ~epochs:n;
  Alcotest.(check int) "the task set is fixed" 4 (Controller.active_tasks controller);
  let grown = Obj.reachable_words (Obj.repr controller) - before in
  if grown >= n then Alcotest.failf "%d ticks grew the controller by %d words" n grown

let test_controller_prototype_config_degrades () =
  (* The control-delay model must not crash and should produce plausible
     (lower or equal) satisfaction vs the ideal simulator. *)
  let run config =
    let controller = mk_controller ~config ~capacity:256 () in
    let rng = Rng.create 17 in
    for i = 0 to 3 do
      ignore (submit_task controller rng ~filter_index:i ~duration:30)
    done;
    Controller.run controller ~epochs:40;
    Controller.finalize controller;
    (Controller.summary controller).Metrics.mean_satisfaction
  in
  let ideal = run Config.default in
  let prototype = run Config.prototype in
  Alcotest.(check bool)
    (Printf.sprintf "prototype (%f) close to ideal (%f)" prototype ideal)
    true
    (prototype <= ideal +. 15.0)

let test_controller_drops_release_rules () =
  (* Overload a tiny network so drops occur, and check dropped tasks leave
     no rules behind. *)
  let config = { Config.default with Config.drop_threshold = 2 } in
  let controller = mk_controller ~config ~capacity:24 () in
  let rng = Rng.create 19 in
  for i = 0 to 11 do
    ignore (submit_task controller rng ~filter_index:i ~duration:200)
  done;
  Controller.run controller ~epochs:80;
  let dropped =
    List.filter (fun r -> r.Metrics.outcome = Metrics.Dropped) (Controller.records controller)
  in
  List.iter
    (fun r ->
      Array.iter
        (fun sw ->
          Alcotest.(check int) "no rules left" 0
            (Tcam.used_by (Switch.tcam sw) ~owner:r.Metrics.task_id))
        (Controller.switches controller))
    dropped;
  (* Active tasks' installed rules always match their monitors. *)
  Alcotest.(check bool) "controller still sane" true (Controller.active_tasks controller >= 0)

let test_controller_install_budget_respected () =
  let config = { Config.default with Config.install_budget = Some 16 } in
  let controller = mk_controller ~config ~capacity:256 () in
  let rng = Rng.create 23 in
  for i = 0 to 3 do
    ignore (submit_task controller rng ~filter_index:i ~duration:40)
  done;
  let previous = ref 0 in
  for _ = 1 to 30 do
    Controller.tick controller;
    let installed = Controller.total_rules_installed controller in
    let delta = installed - !previous in
    previous := installed;
    (* 4 switches x 16 budget = at most 64 installs per epoch. *)
    Alcotest.(check bool)
      (Printf.sprintf "installs per epoch (%d) within budget" delta)
      true (delta <= 64)
  done

(* The budget is a per-epoch cap: every tick each switch installs at most
   4 rules, and the budget refills, so epochs after the first still
   install. *)
let test_controller_install_budget_degrades () =
  let run ?(each_tick = fun _ -> ()) config =
    let controller = mk_controller ~config ~capacity:256 () in
    let rng = Rng.create 29 in
    for i = 0 to 3 do
      ignore (submit_task controller rng ~filter_index:i ~duration:40)
    done;
    for _ = 1 to 50 do
      Controller.tick controller;
      each_tick controller
    done;
    Controller.finalize controller;
    (Controller.summary controller).Metrics.mean_satisfaction
  in
  let unlimited = run Config.default in
  let later_installs = ref 0 in
  let check_budget controller =
    Array.iter
      (fun sw ->
        let installs = (Tcam.stats (Switch.tcam sw)).Tcam.installs in
        Alcotest.(check bool)
          (Printf.sprintf "switch %d: %d installs in epoch %d within budget 4" (Switch.id sw)
             installs
             (Controller.epoch controller - 1))
          true (installs <= 4);
        if Controller.epoch controller > 1 then later_installs := !later_installs + installs)
      (Controller.switches controller)
  in
  let throttled =
    run ~each_tick:check_budget { Config.default with Config.install_budget = Some 4 }
  in
  Alcotest.(check bool) "epochs after the first still install" true (!later_installs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "throttled (%f) <= unlimited (%f)" throttled unlimited)
    true
    (throttled <= unlimited +. 1e-9)

let test_controller_with_baselines () =
  List.iter
    (fun strategy ->
      let controller = mk_controller ~strategy ~capacity:256 () in
      let rng = Rng.create 31 in
      for i = 0 to 5 do
        ignore (submit_task controller rng ~filter_index:i ~duration:25)
      done;
      Controller.run controller ~epochs:35;
      (* Capacity holds for the baselines too. *)
      Array.iter
        (fun sw ->
          Alcotest.(check bool) "capacity" true
            (Tcam.used (Switch.tcam sw) <= Tcam.capacity (Switch.tcam sw)))
        (Controller.switches controller);
      Controller.finalize controller;
      let s = Controller.summary controller in
      Alcotest.(check int) "all accounted" 6 s.Metrics.submitted;
      Alcotest.(check bool) "sane satisfaction" true
        (s.Metrics.mean_satisfaction >= 0.0 && s.Metrics.mean_satisfaction <= 100.0))
    [ Allocator.Equal; Allocator.Fixed 16; Allocator.Fixed 4 ]

let test_controller_replay_source () =
  (* A recorded trace replays through the controller deterministically. *)
  let run () =
    let controller = mk_controller () in
    let rng = Rng.create 41 in
    let filter = Prefix.nth_descendant Prefix.root ~length:12 99 in
    let topology =
      Topology.create rng ~filter ~num_switches:(Controller.num_switches controller)
        ~switches_per_task:4
    in
    let generator =
      Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
    in
    let trace = Array.of_list (Dream_traffic.Trace_io.record generator ~epochs:25) in
    let spec =
      Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
    in
    (match
       Controller.submit controller ~spec ~topology
         ~source:(Dream_traffic.Source.replay ~cycle:false trace)
         ~duration:25
     with
    | `Admitted _ -> ()
    | `Rejected -> Alcotest.fail "must admit");
    Controller.run controller ~epochs:25;
    Controller.finalize controller;
    (Controller.summary controller).Metrics.mean_satisfaction
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-9)) "replay deterministic" a b;
  Alcotest.(check bool) "replay satisfies" true (a > 30.0)

(* ---- drop policy against a list model ---- *)

type drop_case = {
  threshold : int;
  congested : bool array;  (** per switch, 4 switches *)
  tasks : (int * bool * int * int * int array) list;
      (** per task, in id order: topology seed, poor, poor streak, last
          allocation total, allocation per switch *)
}

let gen_drop_case =
  QCheck.Gen.(
    map3
      (fun threshold congested tasks ->
        { threshold; congested = Array.of_list congested; tasks })
      (int_range 1 4)
      (list_repeat 4 bool)
      (list_size (int_range 1 8)
         (map3
            (fun seed (poor, streak, last) alloc -> (seed, poor, streak, last, Array.of_list alloc))
            (int_bound 1000)
            (triple bool (int_bound 5) (int_bound 30))
            (list_repeat 4 (int_bound 10)))))

(* [text] with the [n]th line (from 0) that starts with [key] replaced by
   [f n line]. *)
let rewrite_lines ~key f text =
  let seen = ref (-1) in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if String.starts_with ~prefix:key line then begin
           incr seen;
           f !seen line
         end
         else line)
  |> String.concat "\n"

(* A DREAM allocator holding each task's allocation, with exactly the
   given switches congested: congestion is only ever set by an allocation
   round, so it is written into the allocator's serialized form. *)
let allocator_with ~congested runtimes allocs =
  let allocator =
    Allocator.create (Allocator.Dream Dream_allocator.default_config)
      ~capacities:(List.init 4 (fun sw -> (sw, 256)))
  in
  List.iter2
    (fun r alloc ->
      Allocator.force_admit allocator (Runtime.view r);
      let task = r.Runtime.task in
      Switch_mask.iter (Task.topology task)
        (fun switch _ ->
          Allocator.force_allocation allocator ~task_id:(Runtime.id r) ~switch
            ~alloc:alloc.(switch))
        (Task.switches task))
    runtimes allocs;
  Codec.encode Allocator.codec allocator
  |> rewrite_lines ~key:"congested " (fun sw _ ->
         if congested.(sw) then "congested 1" else "congested 0")
  |> Codec.decode Allocator.codec

(* [r] with a smoothed global accuracy of 0.5, below the default bound: a
   fresh task has none (it reads as 1), and only an estimate sets one, so
   it is written into the task's serialized form, where it is the
   runtime's first EWMA. *)
let poor_runtime r =
  Codec.encode Runtime.codec r
  |> rewrite_lines ~key:"has_avg " (fun n line -> if n = 0 then "has_avg 1\navg 0x1p-1" else line)
  |> Codec.decode Runtime.codec

let prop_drop_policy_model =
  QCheck.Test.make ~name:"drop policy agrees with a list model" ~count:300
    (QCheck.make gen_drop_case) (fun c ->
      let runtimes =
        List.mapi
          (fun id (seed, poor, streak, last, _) ->
            let rng = Rng.create seed in
            let filter = Prefix.nth_descendant Prefix.root ~length:12 id in
            let topology =
              Topology.create rng ~filter ~num_switches:4 ~switches_per_task:(1 lsl (seed mod 3))
            in
            let spec =
              Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
            in
            let r =
              Runtime.create ~pool:(Runtime.pool ()) ~config:Config.default ~id ~spec ~topology
                ~source:(Source.replay [| Epoch_data.of_flows ~epoch:0 [] |])
                ~duration:10 ~arrived_at:0
            in
            let r = if poor then poor_runtime r else r in
            r.Runtime.poor_streak <- streak;
            r.Runtime.last_alloc_total <- last;
            r)
          c.tasks
      in
      let allocs = List.map (fun (_, _, _, _, alloc) -> alloc) c.tasks in
      let allocator = allocator_with ~congested:c.congested runtimes allocs in
      (* The model: each task's new streak, then the task of highest id
         (the latest arrival) among those at the threshold on a congested
         switch. *)
      let model =
        List.map2
          (fun r (_, poor, streak, last, alloc) ->
            let switches =
              Reference_switch_set.set_of_mask (Task.topology r.Runtime.task)
                (Task.switches r.Runtime.task)
            in
            let total = Switch_id.Set.fold (fun sw acc -> acc + alloc.(sw)) switches 0 in
            let streak = if poor && not (total > last) then streak + 1 else 0 in
            let eligible =
              streak >= c.threshold && Switch_id.Set.exists (fun sw -> c.congested.(sw)) switches
            in
            (Runtime.id r, total, last, streak, eligible))
          runtimes c.tasks
      in
      let expected =
        List.fold_left
          (fun best (id, _, _, _, eligible) ->
            match best with
            | _ when not eligible -> best
            | Some b when b > id -> best
            | Some _ | None -> Some id)
          None model
      in
      let victim =
        Drop_policy.victim ~allocator ~threshold:c.threshold (Array.of_list runtimes)
          (List.length runtimes)
      in
      Option.map Runtime.id victim = expected
      && List.for_all2
           (fun r (_, total, last, streak, _) ->
             r.Runtime.poor_streak = streak
             && r.Runtime.last_alloc_total = total
             && ((not (total > last)) || r.Runtime.poor_streak = 0))
           runtimes model)

(* ---- Fetch on fault-free switches ---- *)

module Fetch = Dream_core.Fetch
module Aggregate = Dream_traffic.Aggregate
module Flow = Dream_traffic.Flow

module Monitor = Monitor_views
module Rule_sync = Dream_core.Rule_sync
module Failover = Dream_core.Failover
module Ctr = Dream_obs.Registry.Counter

(* A task under a random topology of [num_switches] switches whose
   monitor has grown past its first counter (a few driven epochs of random
   traffic), and the next epoch's traffic. *)
let grown_task rng ~id ~num_switches =
  let filter = Prefix.of_string "10.1.0.0/24" in
  let topology =
    Topology.create rng ~filter ~num_switches ~switches_per_task:(1 lsl Rng.int rng 3)
  in
  let epoch_data epoch =
    let flows =
      List.init (Rng.int rng 60) (fun _ ->
          Flow.make
            ~addr:(Prefix.bits filter lor Rng.int rng 256)
            ~volume:(float_of_int (1 + Rng.int rng 50)))
    in
    Epoch_data.of_flows ~epoch
      (List.filter_map
         (fun (f : Flow.t) ->
           Option.map (fun sw -> (sw, [ f ])) (Topology.switch_of_address topology f.Flow.addr))
         flows)
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:8.0 ()
  in
  let r =
    Runtime.create ~pool:(Runtime.pool ()) ~config:Config.default ~id ~spec ~topology
      ~source:(Source.replay [| epoch_data 0 |])
      ~duration:10 ~arrived_at:0
  in
  let allocations = Fixtures.allocations_of r.Runtime.task (2 + Rng.int rng 8) in
  for epoch = 0 to Rng.int rng 4 do
    ignore (Fixtures.drive_task r.Runtime.task ~data:(epoch_data epoch) ~allocations ~epoch)
  done;
  (r, filter, epoch_data 9)

(* Random TCAM contents for the task: some of the rules its monitor
   wants, some prefixes under its filter it does not, and rules of another
   owner; a switch may hold none of them. *)
let scatter_rules rng switches (r : Runtime.t) filter =
  let id = Runtime.id r in
  Array.iter
    (fun sw ->
      let tcam = Switch.tcam sw in
      List.iter
        (fun q -> if Rng.int rng 3 > 0 then ignore (Tcam.install tcam ~owner:id (Prefix.key q)))
        (Fixtures.rules_for (Task.monitor r.Runtime.task) (Switch.id sw));
      for _ = 1 to Rng.int rng 8 do
        let length = 24 + Rng.int rng 9 in
        let q = Prefix.make ~bits:(Prefix.bits filter lor Rng.int rng 256) ~length in
        let owner = if Rng.int rng 2 = 0 then id + 1 else id in
        ignore (Tcam.install tcam ~owner (Prefix.key q))
      done)
    switches

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* On switches without a fault model, a fetch is a plain TCAM read: each
   switch holding the task's rules answers with the task's rules, each
   paired with its aggregate volume, and the monitor takes the readings of
   the rules it still counts.  Other owners' rules stay out of it, and
   every fetched rule is priced once.  Once every configured rule is
   installed, a fetch's totals are those of a twin task fed the same
   traffic by Task.read_traffic, bit for bit. *)
let prop_fetch_read_fault_free =
  QCheck.Test.make ~name:"fault-free Fetch.read = TCAM rules paired with Aggregate.volume"
    ~count:100 QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let num_switches = 4 and id = 3 in
      let r, filter, data = grown_task rng ~id ~num_switches in
      let switches = Switch.network ~num_switches ~capacity:64 () in
      scatter_rules rng switches r filter;
      let registry = Dream_obs.Registry.create () in
      let f =
        Fetch.create ~config:Config.default ~switches ~breakers:None ~faults:None
          ~tallies:(Metrics.Tallies.of_registry registry) ~registry ~trace:None
      in
      Fetch.begin_epoch f ~epoch:0 ~healed:[];
      let degraded = Fetch.read f r data in
      let m = Task.monitor r.Runtime.task in
      let topology = Task.topology r.Runtime.task in
      let expected slot =
        let q = Monitor.prefix m slot in
        Array.to_list switches
        |> List.filter_map (fun switch ->
               let sw = Switch.id switch in
               if
                 Topology.bit_of_switch topology sw >= 0
                 && List.exists (Prefix.equal q)
                      (Fixtures.tcam_rules (Switch.tcam switch) ~owner:id)
               then Some (sw, Aggregate.volume (Epoch_data.switch_view data sw) q)
               else None)
      in
      let fetched =
        Array.for_all
          (fun sw ->
            let tcam = Switch.tcam sw in
            (Tcam.stats tcam).Tcam.fetches = Tcam.used_by tcam ~owner:id)
          switches
      in
      let first_fetch =
        degraded = Switch_mask.empty && fetched
        && List.for_all
             (fun slot ->
               List.equal
                 (fun (sa, va) (sb, vb) -> sa = sb && same_float va vb)
                 (Monitor.volumes m slot) (expected slot))
             (List.init (Monitor.num_counters m) Fun.id)
      in
      let twin, _, _ = grown_task (Rng.create seed) ~id ~num_switches in
      Array.iter
        (fun sw ->
          List.iter
            (fun q -> ignore (Tcam.install (Switch.tcam sw) ~owner:id (Prefix.key q)))
            (Fixtures.rules_for m (Switch.id sw)))
        switches;
      Fetch.begin_epoch f ~epoch:1 ~healed:[];
      ignore (Fetch.read f r data);
      Task.read_traffic twin.Runtime.task data;
      let totals = m.Monitor.totals in
      let twin_totals = (Task.monitor twin.Runtime.task).Monitor.totals in
      first_fetch
      && List.for_all
           (fun slot -> same_float totals.(slot) twin_totals.(slot))
           (List.init (Monitor.num_counters m) Fun.id))

(* The bounded-staleness rule, driven directly.  In degraded mode a stale
   round decays the task's smoothed accuracy by [stale_decay] and raises
   its staleness by one, until staleness reaches [Fetch.shed_max_staleness]:
   from there the decay stops while staleness keeps rising.  A fresh round
   resets staleness to 0 and decays nothing.  Under a fault model without
   degraded mode the decay never stops and staleness is not kept.  The
   fetch schedule puts the most stale first, ties in task-id order, and
   outside degraded mode keeps the order given. *)
let test_fetch_bounded_staleness () =
  let num_switches = 4 and bound = Fetch.shed_max_staleness in
  let spec = Dream_fault.Fault_model.zero in
  let fetch degraded =
    let config = { Config.default with Config.faults = Some spec; degraded } in
    let registry = Dream_obs.Registry.create () in
    Fetch.create ~config
      ~switches:(Switch.network ~num_switches ~capacity:64 ())
      ~breakers:None
      ~faults:(Some (Dream_fault.Fault_model.create spec ~num_switches))
      ~tallies:(Metrics.Tallies.of_registry registry) ~registry ~trace:None
  in
  let degraded = fetch (Some Config.default_degraded) in
  (* A task that has estimated once, on traffic with no heavy hitter, so
     its smoothed accuracy is 1.0 and every decay shows. *)
  let task id =
    let filter = Prefix.of_string "10.1.0.0/24" in
    let topology = Topology.create (Rng.create id) ~filter ~num_switches ~switches_per_task:2 in
    let spec =
      Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:1e9 ()
    in
    let data = Epoch_data.of_flows ~epoch:0 [] in
    let r =
      Runtime.create ~pool:(Runtime.pool ()) ~config:Config.default ~id ~spec ~topology
        ~source:(Source.replay [| data |]) ~duration:10 ~arrived_at:0
    in
    let allocations = Fixtures.allocations_of r.Runtime.task 4 in
    ignore (Fixtures.drive_task r.Runtime.task ~data ~allocations ~epoch:0);
    r
  in
  let round f (r : Runtime.t) mask ~staleness ~decays =
    let before = Task.smoothed_global r.task in
    Fetch.bound_staleness f r mask;
    let expected = if decays then before *. Dream_fault.Fault_model.stale_decay else before in
    Alcotest.(check int) "staleness" staleness r.staleness;
    Alcotest.(check (float 0.0)) "smoothed accuracy" expected (Task.smoothed_global r.task)
  in
  let stale = 1 (* bit 0: every topology has it *) and fresh = Switch_mask.empty in
  let r = task 1 in
  Alcotest.(check (float 0.0)) "estimated before" 1.0 (Task.smoothed_global r.task);
  for staleness = 1 to bound do
    round degraded r stale ~staleness ~decays:true
  done;
  round degraded r stale ~staleness:(bound + 1) ~decays:false;
  round degraded r stale ~staleness:(bound + 2) ~decays:false;
  round degraded r fresh ~staleness:0 ~decays:false;
  round degraded r stale ~staleness:1 ~decays:true;
  let faults_only = fetch None in
  let r = task 2 in
  for _ = 1 to bound + 2 do
    round faults_only r stale ~staleness:0 ~decays:true
  done;
  let tasks = List.map task [ 1; 2; 3; 4 ] in
  List.iter2 (fun (r : Runtime.t) s -> r.staleness <- s) tasks [ 0; 2; 0; 2 ];
  let ids f =
    let order = Fetch.schedule f (Array.of_list tasks) (List.length tasks) in
    List.init (List.length tasks) (fun i -> Runtime.id order.(i))
  in
  Alcotest.(check (list int)) "most stale first, ties in id order" [ 2; 4; 1; 3 ] (ids degraded);
  Alcotest.(check (list int)) "no reordering outside degraded mode" [ 1; 2; 3; 4 ]
    (ids faults_only)

(* Rule sync is the Set.diff plan of the retired sync path, cut where the
   switch's update budget or its capacity runs out: per switch, the first
   stale rules in prefix order are removed, then the first missing ones
   installed, and the installs are the task's fresh rules there. *)
let prop_rule_sync_matches_set_diff =
  QCheck.Test.make ~name:"rule sync = Set.diff plan, cut at budget and capacity" ~count:200
    QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let num_switches = 4 and id = 3 in
      let r, filter, _ = grown_task rng ~id ~num_switches in
      let capacity = 4 + Rng.int rng 40 in
      let switches = Switch.network ~num_switches ~capacity () in
      scatter_rules rng switches r filter;
      let budget = if Rng.int rng 3 = 0 then None else Some (Rng.int rng 12) in
      let task = r.Runtime.task in
      let expected =
        Array.map
          (fun sw ->
            let tcam = Switch.tcam sw in
            let installed = Fixtures.tcam_rules tcam ~owner:id in
            let desired = Fixtures.rules_for (Task.monitor task) (Switch.id sw) in
            let to_remove, to_add = Reference_sync.plan ~installed ~desired in
            let take n l = List.filteri (fun i _ -> i < n) l in
            let left = match budget with Some b -> b | None -> max_int in
            let removed = take left to_remove in
            let left = left - List.length removed in
            let room = capacity - (Tcam.used tcam - List.length removed) in
            let added = take (min left room) to_add in
            let final =
              List.sort Prefix.compare
                (added @ List.filter (fun q -> not (List.mem q removed)) installed)
            in
            (List.length removed, added, final))
          switches
      in
      let registry = Dream_obs.Registry.create () in
      let sync =
        Rule_sync.create ~switches ~install_budget:budget
          ~tallies:(Metrics.Tallies.of_registry registry)
      in
      Rule_sync.sync sync [| r |] 1;
      let removed = Rule_sync.removed sync 0 in
      let topology = Task.topology task in
      removed = Array.fold_left (fun acc (n, _, _) -> acc + n) 0 expected
      && Array.for_all2
           (fun switch (_, added, final) ->
             let sw = Switch.id switch in
             let fresh =
               match Topology.bit_of_switch topology sw with
               | -1 -> []
               | b ->
                 List.init r.Runtime.last_install_counts.(b) (fun i ->
                     Prefix.of_key r.Runtime.fresh_rules.(b).(i))
             in
             List.equal Prefix.equal (Fixtures.tcam_rules (Switch.tcam switch) ~owner:id) final
             && List.equal Prefix.equal fresh added)
           switches expected)

(* Retirement, against a model of each task's age: after every tick the
   tasks that left the active set are those dropped in it plus exactly
   those whose active epochs reached their duration; each of the latter
   has one Completed record that lived its duration, and no TCAM holds a
   rule of any task that has left. *)
let prop_retire_at_duration =
  QCheck.Test.make ~name:"tick retires exactly the tasks that reached their duration" ~count:25
    QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let controller = mk_controller ~capacity:256 () in
      let duration = Hashtbl.create 16 and age = Hashtbl.create 16 in
      let left_so_far = ref [] in
      for epoch = 0 to 29 do
        if Rng.int rng 3 = 0 then begin
          let d = 1 + Rng.int rng 8 in
          match submit_task controller rng ~filter_index:epoch ~duration:d with
          | `Admitted id ->
            Hashtbl.replace duration id d;
            Hashtbl.replace age id 0
          | `Rejected -> ()
        end;
        let before = Controller.active_task_ids controller in
        Controller.tick controller;
        let after = Controller.active_task_ids controller in
        List.iter (fun id -> Hashtbl.replace age id (Hashtbl.find age id + 1)) before;
        let records id =
          List.filter (fun r -> r.Metrics.task_id = id) (Controller.records controller)
        in
        List.iter
          (fun id ->
            let left = not (List.mem id after) in
            let reached = Hashtbl.find age id >= Hashtbl.find duration id in
            match records id with
            | [ r ] when r.Metrics.outcome = Metrics.Dropped -> ()
            | [ r ] when reached && left ->
              if r.Metrics.outcome <> Metrics.Completed then
                QCheck.Test.fail_reportf "task %d reached its duration but was not completed" id;
              if r.Metrics.active_epochs <> Hashtbl.find duration id then
                QCheck.Test.fail_reportf "task %d completed after %d epochs, not %d" id
                  r.Metrics.active_epochs (Hashtbl.find duration id)
            | [] when not (reached || left) -> ()
            | rs ->
              QCheck.Test.fail_reportf
                "epoch %d, task %d: age %d of %d, %s, %d record(s)" epoch id
                (Hashtbl.find age id) (Hashtbl.find duration id)
                (if left then "left" else "still active")
                (List.length rs))
          before;
        left_so_far := List.filter (fun id -> not (List.mem id after)) before @ !left_so_far;
        Array.iter
          (fun sw ->
            List.iter
              (fun id ->
                if Tcam.used_by (Switch.tcam sw) ~owner:id > 0 then
                  QCheck.Test.fail_reportf "switch %d keeps rules of retired task %d"
                    (Switch.id sw) id)
              !left_so_far)
          (Controller.switches controller)
      done;
      true)

(* Fail-over's column reconcile is the retired list audit
   (Reference_audit), switch by switch, on tables tampered with the ways
   an outage leaves them: live tasks' rules missing, strays under live
   owners, rules of owners no longer running, and now and then a table
   filled to capacity.  Both leave the same table, price the same churn
   (Fig 17 and switches.csv read the stats) and count the same strays
   and reinstalls. *)
let prop_reconcile_matches_list_audit =
  QCheck.Test.make ~name:"fail-over reconcile = list audit oracle" ~count:200
    QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let num_switches = 4 in
      let runtimes =
        List.init (1 + Rng.int rng 3) (fun i ->
            let r, _, _ = grown_task rng ~id:(i + 1) ~num_switches in
            r)
      in
      let capacity = 4 + Rng.int rng 40 in
      let switches = Switch.network ~num_switches ~capacity () in
      let oracle = Array.init num_switches (fun _ -> Tcam.create ~capacity) in
      (* Each tampering lands on both tables alike. *)
      let install sw ~owner key =
        ignore (Tcam.install (Switch.tcam switches.(sw)) ~owner key);
        ignore (Tcam.install oracle.(sw) ~owner key)
      in
      let filter = Prefix.of_string "10.1.0.0/24" in
      let random_key () =
        let bits = Prefix.bits filter lor Rng.int rng 256 in
        Prefix.key (Prefix.make ~bits ~length:(24 + Rng.int rng 9))
      in
      let orphan () = 10 + Rng.int rng 3 in
      for sw = 0 to num_switches - 1 do
        List.iter
          (fun (r : Runtime.t) ->
            let owner = Runtime.id r in
            List.iter
              (fun q -> if Rng.int rng 3 > 0 then install sw ~owner (Prefix.key q))
              (Fixtures.rules_for (Task.monitor r.Runtime.task) sw);
            for _ = 1 to Rng.int rng 4 do
              install sw ~owner (random_key ())
            done)
          runtimes;
        for _ = 1 to Rng.int rng 6 do
          install sw ~owner:(orphan ()) (random_key ())
        done;
        if Rng.int rng 3 = 0 then
          while Tcam.used oracle.(sw) < Tcam.capacity oracle.(sw) do
            let live = 1 + Rng.int rng (List.length runtimes) in
            install sw ~owner:(if coin rng then orphan () else live) (random_key ())
          done;
        Tcam.reset_stats (Switch.tcam switches.(sw));
        Tcam.reset_stats oracle.(sw)
      done;
      let same_dump a b =
        List.equal (fun (o, ps) (o', ps') -> o = o' && List.equal Prefix.equal ps ps') a b
      in
      Array.for_all2
        (fun switch tcam ->
          let sw = Switch.id switch in
          let expected =
            Reference_audit.audit tcam
              ~expected:
                (List.filter_map
                   (fun (r : Runtime.t) ->
                     match Fixtures.rules_for (Task.monitor r.Runtime.task) sw with
                     | [] -> None
                     | rules -> Some (Runtime.id r, rules))
                   runtimes)
          in
          let tallies = Metrics.Tallies.of_registry (Dream_obs.Registry.create ()) in
          Failover.reconcile ~switches:[| switch |] ~runtimes ~tallies ~trace:None ~epoch:0;
          let live = Switch.tcam switch in
          Ctr.value tallies.reconcile_removed = expected.Reference_audit.strays_removed
          && Ctr.value tallies.reconcile_installed = expected.Reference_audit.missing_installed
          && same_dump (Tcam.dump live) (Tcam.dump tcam)
          && Tcam.stats live = Tcam.stats tcam)
        switches oracle)

(* ---- configure ---- *)

(* Seeded random allocation sequences on one task, with zeros the way
   quarantine zeroes a down switch.  After every configure the task uses
   no more than its allocation on any switch, its counters partition its
   filter, and a switch allocated 0 holds none of them. *)
let prop_configure_within_allocations =
  QCheck.Test.make ~name:"configure: usage within allocation, a partition, none on a 0"
    ~count:100 QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let filter = Prefix.of_string "10.1.0.0/24" in
      let topology =
        Topology.create rng ~filter ~num_switches:8 ~switches_per_task:(1 lsl Rng.int rng 4)
      in
      let spec =
        Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:8.0 ()
      in
      let task = Task.create ~id:1 ~spec ~topology ~storage:(Dream_tasks.Storage.create ()) () in
      let bits = Topology.switches_per_task topology in
      List.for_all
        (fun epoch ->
          let flows =
            List.init (Rng.int rng 80) (fun _ ->
                Flow.make
                  ~addr:(Prefix.bits filter lor Rng.int rng 256)
                  ~volume:(float_of_int (1 + Rng.int rng 50)))
          in
          Task.read_traffic task
            (Epoch_data.of_flows ~epoch
               (List.filter_map
                  (fun (f : Flow.t) ->
                    Option.map
                      (fun sw -> (sw, [ f ]))
                      (Topology.switch_of_address topology f.Flow.addr))
                  flows));
          ignore (Task.estimate task ~epoch);
          let allocations =
            Array.init bits (fun b ->
                if (not (Switch_mask.mem_bit b (Task.switches task))) || Rng.int rng 4 = 0 then 0
                else 1 + Rng.int rng 12)
          in
          Task.configure task ~workspace:Fixtures.workspace ~allocations:(Array.copy allocations);
          Monitor.is_partition (Task.monitor task)
          && List.for_all
               (fun b ->
                 let used = Task.counters_used task b in
                 used <= allocations.(b) && (allocations.(b) > 0 || used = 0))
               (List.init bits Fun.id))
        (List.init 16 Fun.id))

(* ---- Recycled storage ---- *)

module Gc_stats = Dream_obs.Gc_stats

(* Words allocated inside [f]: minor plus direct major words.  The minor
   collections on both sides make quick_stat's major and promoted words
   current, and net out what [f]'s minor words promote. *)
let window f =
  Gc.minor ();
  let before = Gc_stats.read Gc_stats.real in
  f ();
  Gc.minor ();
  Gc_stats.allocated (Gc_stats.sub (Gc_stats.read Gc_stats.real) before)
[@@lint.allow "determinism-gc"]

(* ... net of what the reads themselves allocate. *)
let words f = window f -. window ignore

(* Admit and retire a k = 8 task, then admit one of the same k: the second
   starts on the storage the first grew, so over the same epochs and
   allocations its configures grow nothing, where the first's grew its
   columns and the workspace from empty.  Then a donor that filled under
   half of its counter table retires: the pool keeps its storage too, and
   the task after it grows nothing either. *)
let test_recycled_configures_grow_nothing () =
  let filter = Prefix.of_string "10.0.0.0/20" in
  let topology = Topology.create (Rng.create 5) ~filter ~num_switches:10 ~switches_per_task:8 in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:4.0 ()
  in
  let rng = Rng.create 5 in
  let epochs =
    Array.init 12 (fun epoch ->
        Epoch_data.of_flows ~epoch
          (List.filter_map
             (fun _ ->
               let f =
                 Flow.make
                   ~addr:(Prefix.bits filter lor Rng.int rng 4096)
                   ~volume:(float_of_int (1 + Rng.int rng 50))
               in
               Topology.switch_of_address topology f.Flow.addr
               |> Option.map (fun sw -> (sw, [ f ])))
             (List.init 300 Fun.id)))
  in
  let pool = Runtime.pool () and workspace = Dream_tasks.Divide_merge.create () in
  let admit id =
    Runtime.create ~config:Config.default ~pool ~id ~spec ~topology ~source:(Source.replay epochs)
      ~duration:12 ~arrived_at:0
  in
  (* Configure's words over the epochs, each after a fetch and estimate,
     and each counted as one the task ran, as the tick counts it. *)
  let run ?(entries = 40) (r : Runtime.t) =
    let allocations = Fixtures.allocations_of r.Runtime.task entries in
    Array.fold_left
      (fun acc data ->
        r.Runtime.active_epochs <- r.Runtime.active_epochs + 1;
        Task.read_traffic r.Runtime.task data;
        ignore (Task.estimate r.Runtime.task ~epoch:data.Epoch_data.epoch);
        acc +. words (fun () -> Task.configure r.Runtime.task ~workspace ~allocations))
      0.0 epochs
  in
  let first = admit 0 in
  let grown = run first in
  Runtime.recycle pool ~live:1 first;
  Alcotest.(check int) "the pool holds the retired storage" 1 (Runtime.pooled pool);
  let second = admit 1 in
  Alcotest.(check int) "the admission took it" 0 (Runtime.pooled pool);
  let recycled = run second in
  Alcotest.(check bool)
    (Printf.sprintf "fresh storage grows (%.0f words)" grown)
    true (grown > 0.0);
  Alcotest.(check (float 0.0)) "words of the recycled task's configures" 0.0 recycled;
  Runtime.recycle pool ~live:1 second;
  let donor = admit 2 in
  ignore (run ~entries:1 donor);
  let m = Task.monitor donor.Runtime.task in
  Alcotest.(check bool)
    (Printf.sprintf "the donor filled %d of %d slots" m.Monitor.n (Monitor.capacity m))
    true
    (2 * m.Monitor.n < Monitor.capacity m);
  Runtime.recycle pool ~live:1 donor;
  Alcotest.(check int) "the pool keeps the donor's storage" 1 (Runtime.pooled pool);
  Alcotest.(check (float 0.0)) "words of the next task's configures" 0.0 (run (admit 3))

(* A random churn of admissions, rejections, drops and retirements of
   tasks with one, two or four sub-filters: the pool never holds more
   storage than the most tasks live at once. *)
let prop_pool_bounded_by_peak_live =
  QCheck.Test.make ~name:"the pool never holds more than the peak of live tasks" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let controller = mk_controller ~capacity:(16 + Rng.int rng 64) () in
      let peak = ref 0 and used = ref false in
      let check what =
        peak := max !peak (Controller.active_tasks controller);
        let pooled = Controller.pooled_storage controller in
        if pooled > 0 then used := true;
        if pooled > !peak then
          QCheck.Test.fail_reportf "%s: %d pooled, peak %d (seed %d)" what pooled !peak seed
      in
      for i = 0 to 59 do
        for _ = 1 to Rng.int rng 3 do
          let filter = Prefix.nth_descendant Prefix.root ~length:12 (Rng.int rng 4000) in
          let topology =
            Topology.create rng ~filter ~num_switches:4 ~switches_per_task:(1 lsl Rng.int rng 3)
          in
          let spec =
            Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
          in
          let generator =
            Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
          in
          ignore
            (Controller.submit controller ~spec ~topology ~source:(Source.of_generator generator)
               ~duration:(2 + Rng.int rng 12));
          check (Printf.sprintf "submit in epoch %d" i)
        done;
        Controller.tick controller;
        check (Printf.sprintf "tick %d" i)
      done;
      Controller.finalize controller;
      check "finalize";
      !used)

let () =
  Alcotest.run "dream.core"
    [
      ( "metrics",
        [
          Alcotest.test_case "summary" `Quick test_metrics_summary;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
        ] );
      ( "controller",
        [
          Alcotest.test_case "admits and completes" `Quick test_controller_admits_and_completes;
          Alcotest.test_case "capacity never violated" `Quick test_controller_capacity_never_violated;
          Alcotest.test_case "rejects under overload" `Quick test_controller_rejects_under_overload;
          Alcotest.test_case "reports available" `Quick test_controller_reports_available;
          Alcotest.test_case "deterministic" `Quick test_controller_deterministic;
          Alcotest.test_case "finalize records partial" `Quick
            test_controller_finalize_records_partial;
          Alcotest.test_case "delay samples" `Quick test_controller_delay_samples;
          Alcotest.test_case "retains nothing per epoch" `Quick
            test_controller_retains_nothing_per_epoch;
          Alcotest.test_case "prototype config degrades gracefully" `Quick
            test_controller_prototype_config_degrades;
          Alcotest.test_case "drops release rules" `Quick test_controller_drops_release_rules;
          Alcotest.test_case "install budget respected" `Quick
            test_controller_install_budget_respected;
          Alcotest.test_case "install budget degrades satisfaction" `Quick
            test_controller_install_budget_degrades;
          Alcotest.test_case "baselines end-to-end" `Quick test_controller_with_baselines;
          Alcotest.test_case "replay source" `Quick test_controller_replay_source;
        ] );
      ("drop-policy", [ QCheck_alcotest.to_alcotest prop_drop_policy_model ]);
      ( "fetch",
        [
          QCheck_alcotest.to_alcotest prop_fetch_read_fault_free;
          Alcotest.test_case "bounded staleness" `Quick test_fetch_bounded_staleness;
          QCheck_alcotest.to_alcotest prop_rule_sync_matches_set_diff;
        ] );
      ("failover", [ QCheck_alcotest.to_alcotest prop_reconcile_matches_list_audit ]);
      ("retire", [ QCheck_alcotest.to_alcotest prop_retire_at_duration ]);
      ("configure", [ QCheck_alcotest.to_alcotest prop_configure_within_allocations ]);
      ( "storage",
        [
          Alcotest.test_case "a recycled task's configures grow nothing" `Quick
            test_recycled_configures_grow_nothing;
          QCheck_alcotest.to_alcotest prop_pool_bounded_by_peak_live;
        ] );
    ]
