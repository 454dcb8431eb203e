(* Allocation-budget regression: every profiled control-loop phase must
   stay under the per-phase word budgets committed in
   bench/baseline/ALLOC_BUDGET.json for the flat counter store.  Seeded
   runs allocate deterministically, so a budget miss is a real regression
   (some scratch structure started being rebuilt per epoch), not noise —
   the budgets carry ~15% headroom over the measured values recorded next
   to them only so that small, deliberate feature work does not have to
   touch the file. *)

module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config
module Fault_model = Dream_fault.Fault_model
module Telemetry = Dream_obs.Telemetry
module Profile = Dream_obs.Profile
module Gc_stats = Dream_obs.Gc_stats
module Json = Dream_obs.Json
module Experiment = Dream_sim.Experiment
module Controller = Dream_core.Controller
module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Generator = Dream_traffic.Generator
module Traffic_profile = Dream_traffic.Profile
module Source = Dream_traffic.Source
module Task_spec = Dream_tasks.Task_spec

(* dune runs tests from _build/default/test; a manual `./test_….exe` from
   the repo root also works thanks to the second candidate. *)
let budget_file =
  let candidates = [ "../bench/baseline/ALLOC_BUDGET.json"; "bench/baseline/ALLOC_BUDGET.json" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> "../bench/baseline/ALLOC_BUDGET.json"

(* Must match the "measured" scenario documented in the budget file. *)
let epochs = 80

let scenario = { Scenario.default with Scenario.num_tasks = 35; total_epochs = epochs }

let phases =
  [ "epoch"; "fetch"; "estimate"; "ground_truth"; "allocate"; "configure"; "rule_sync"; "retire" ]

(* Only [budgets.flat] is read: one number per phase. *)
let budgets_json =
  Dream_util.Codec.(
    let flat = section "flat" (record (rest (float "budget") Fun.id)) in
    record (field (section "budgets" flat) Fun.id))

let read_budgets () =
  let contents = In_channel.with_open_text budget_file In_channel.input_all in
  match Result.bind (Json.of_string contents) (Json.decode budgets_json) with
  | Error e -> Alcotest.failf "unreadable %s: %s" budget_file e
  | Ok flat ->
    List.map
      (fun phase ->
        match List.assoc_opt phase flat with
        | Some v -> (phase, v)
        | None -> Alcotest.failf "%s: missing budgets.flat.%s" budget_file phase)
      phases

let span_of_phase = function "epoch" -> "epoch" | phase -> "epoch/" ^ phase

let alloc_words (r : Gc_stats.reading) =
  r.Gc_stats.minor_words +. r.Gc_stats.major_words -. r.Gc_stats.promoted_words

let profiled_run ~pad =
  (* Allocation before the run moves where its minor collections and
     major slices fall, and nothing else. *)
  ignore (Sys.opaque_identity (Array.make pad 0));
  let profile = Profile.create () in
  let config =
    {
      Config.default with
      Config.faults = Some (Fault_model.uniform ~seed:97 0.05);
      telemetry = Some (Telemetry.create ~profile ());
    }
  in
  ignore (Experiment.run ~config scenario Experiment.dream_strategy);
  profile

(* Words per epoch of each phase, in [phases] order. *)
let phase_words profile =
  List.map
    (fun phase ->
      match Profile.find profile (span_of_phase phase) with
      | None -> Alcotest.failf "no %s span in profile" (span_of_phase phase)
      | Some stat -> (phase, alloc_words stat.Profile.gc /. float_of_int epochs))
    phases

let check_budgets () =
  let measured = phase_words (profiled_run ~pad:0) in
  List.iter
    (fun (phase, budget) ->
      let per_epoch = List.assoc phase measured in
      if per_epoch > budget then
        Alcotest.failf "%s allocates %.0f words/epoch, budget %.0f" phase per_epoch budget)
    (read_budgets ())

(* Span words are exact, so they do not depend on what ran before: a
   history padded by k words reads the same figures to the bit, whichever
   span the collections then land in. *)
let check_history_independent () =
  let base = phase_words (profiled_run ~pad:0) in
  List.iter
    (fun pad ->
      List.iter2
        (fun (phase, expected) (_, got) ->
          if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)) then
            Alcotest.failf "%s reads %.3f words/epoch after %d words of history, %.3f after none"
              phase got pad expected)
        base
        (phase_words (profiled_run ~pad)))
    [ 1; 16; 77_000 ]

(* ---- the steady state ---- *)

(* Six tasks admitted at epoch 0 that outlive the run, on 8 switches of
   1,024 entries, each replaying four pre-drawn epochs of its own traffic
   in a cycle: the draw hands back a stored epoch and allocates nothing.
   After [warm_epochs] ticks every table has grown, and nothing is admitted
   or retired. *)
let warm_epochs = 60

let measured_epochs = 20

let fixed_controller ~telemetry =
  let config = { Config.default with Config.telemetry } in
  let controller =
    Controller.create ~config ~strategy:Experiment.dream_strategy ~num_switches:8 ~capacity:1024
  in
  let rng = Rng.create 11 in
  List.iteri
    (fun i kind ->
      let filter = Prefix.nth_descendant Prefix.root ~length:12 (16 + i) in
      let spec = Task_spec.make ~kind ~filter ~leaf_length:24 ~threshold:8.0 () in
      let topology = Topology.create rng ~filter ~num_switches:8 ~switches_per_task:4 in
      let generator =
        Generator.create (Rng.split rng) ~topology
          ~profile:(Traffic_profile.default ~threshold:8.0)
      in
      let epochs = Array.init 4 (fun _ -> Generator.next generator) in
      match Controller.submit controller ~spec ~topology ~source:(Source.replay epochs) ~duration:1_000 with
      | `Admitted _ -> ()
      | `Rejected -> Alcotest.fail "a fixed task was rejected")
    Task_spec.
      [ Heavy_hitter; Hierarchical_heavy_hitter; Change_detection; Heavy_hitter;
        Hierarchical_heavy_hitter; Change_detection ];
  for _ = 1 to warm_epochs do
    Controller.tick controller
  done;
  controller

(* Words each span took in each of the [measured_epochs] epochs. *)
let span_words controller profile spans =
  let read name =
    match Profile.find profile name with Some s -> alloc_words s.Profile.gc | None -> 0.0
  in
  List.init measured_epochs (fun _ ->
      let before = List.map read spans in
      Controller.tick controller;
      List.map2 (fun name b -> read name -. b) spans before)

(* Once warm, the estimators, the ground-truth scoring and the allocation
   round allocate nothing, and the tick outside divide-and-merge 4 words a
   task: [Source.next]'s [{ data with epoch }] copy of the replayed epoch
   (ROADMAP item 7's).  Every figure is a span of one profiled run: the
   [epoch] span is the whole tick, the trace's bookkeeping included, and
   that keeps its columns across epochs. *)
let check_steady_state () =
  let profile = Profile.create () in
  let controller = fixed_controller ~telemetry:(Some (Telemetry.create ~profile ())) in
  let spans =
    [ "epoch"; "epoch/estimate"; "epoch/ground_truth"; "epoch/allocate"; "epoch/configure" ]
  in
  let words = span_words controller profile spans in
  let tasks = Controller.active_tasks controller in
  Alcotest.(check int) "the task set is fixed" 6 tasks;
  List.iteri
    (fun i phases ->
      match phases with
      | [ epoch; estimate; ground_truth; allocate; configure ] ->
        List.iter
          (fun (span, w) ->
            if w <> 0.0 then Alcotest.failf "epoch %d: %s allocates %.0f words" i span w)
          [ ("epoch/estimate", estimate); ("epoch/ground_truth", ground_truth);
            ("epoch/allocate", allocate) ];
        let outside = epoch -. configure in
        if outside > 4.0 *. float_of_int tasks then
          Alcotest.failf "epoch %d: the tick outside configure allocates %.0f words" i outside
      | _ -> assert false)
    words

let () =
  Alcotest.run "dream.alloc_budget"
    [
      ( "budgets",
        [
          Alcotest.test_case "flat backend under budget" `Slow check_budgets;
          Alcotest.test_case "span words independent of history" `Slow check_history_independent;
          Alcotest.test_case "a warmed tick allocates nothing outside its tasks" `Slow
            check_steady_state;
        ] );
    ]
