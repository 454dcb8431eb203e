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

let phases = [ "epoch"; "fetch"; "estimate"; "ground_truth"; "allocate"; "configure"; "rule_sync" ]

let read_budgets () =
  let contents = In_channel.with_open_text budget_file In_channel.input_all in
  match Json.of_string contents with
  | Error e -> Alcotest.failf "unreadable %s: %s" budget_file e
  | Ok j -> begin
    match Option.bind (Json.member "budgets" j) (Json.member "flat") with
    | None -> Alcotest.failf "%s: no budgets.flat object" budget_file
    | Some b ->
      List.map
        (fun phase ->
          match Option.bind (Json.member phase b) Json.to_float with
          | Some v -> (phase, v)
          | None -> Alcotest.failf "%s: missing budgets.flat.%s" budget_file phase)
        phases
  end

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

let () =
  Alcotest.run "dream.alloc_budget"
    [
      ( "budgets",
        [
          Alcotest.test_case "flat backend under budget" `Slow check_budgets;
          Alcotest.test_case "span words independent of history" `Slow check_history_independent;
        ] );
    ]
