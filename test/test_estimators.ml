(* Tests for the task-dependent algorithms of Table 1 — HH / HHH / CD
   reports and accuracy estimators — and for ground truth, all on the
   hand-checked 4-bit worked example in Fixtures. *)

module Prefix = Prefix_ops
module Task_spec = Dream_tasks.Task_spec
module Task = Dream_tasks.Task
module Report = Dream_tasks.Report
module Accuracy = Dream_tasks.Accuracy
module Hhh = Dream_tasks.Hhh
module Ground_truth = Dream_tasks.Ground_truth
module Items = Dream_tasks.Items
module Recall_estimator = Dream_tasks.Recall_estimator
module F = Fixtures

let prefix_set = Alcotest.testable (Fmt.Dump.list Prefix.pp) (List.equal Prefix.equal)

let reported_prefixes report =
  List.sort Prefix.compare (List.map (fun (i : Report.item) -> i.Report.prefix) report.Report.items)

(* A list-built report as the key column ground truth scores. *)
let items_of_report (report : Report.t) =
  Items.of_keys (List.map (fun (i : Report.item) -> Prefix.key i.Report.prefix) report.Report.items)

let prefixes_of (items : Items.t) =
  List.init items.Items.n (fun i -> Prefix.of_key items.Items.keys.(i))

(* ---- missed-HH bound (Section 5.3) ---- *)

(* A monitor holding the exact leaf 0000, one more counter [coarse] and
   the rest of the filter, with 12 Mb on the leaf, [volume] on [coarse]
   and nothing elsewhere: one detection, so the estimated recall is
   1 / (1 + the items [coarse] may hide). *)
let recall_beside_leaf ~coarse ~volume =
  let m =
    Dream_tasks.Monitor.create ~storage:(F.fresh_storage ()) ~spec:(F.spec ())
      ~topology:(F.topology ())
  in
  (* 0***, 1*** -> 00**, 01**, 1*** -> 000*, 001*, ... -> 0000, 0001, ... *)
  for _ = 1 to 4 do
    ignore (Monitor_views.divide_slot m 0)
  done;
  (* The estimators read a settled table. *)
  Dream_tasks.Monitor.settle m;
  let vol_of q =
    if Prefix.equal q (F.leaf 0b0000) then 12.0 else if Prefix.equal q coarse then volume else 0.0
  in
  F.ingest_readings m
    (Dream_traffic.Switch_mask.fold (F.topology ())
       (fun sw _ acc -> (sw, List.map (fun q -> (q, vol_of q)) (F.rules_for m sw)) :: acc)
       (Dream_tasks.Monitor.switches m) []);
  let estimator = Recall_estimator.create m Recall_estimator.Volume (Items.create ()) in
  Recall_estimator.report estimator;
  (Recall_estimator.estimate estimator ~allocations:[| 64; 64 |]).(Accuracy.global)

let test_missed_bound () =
  (* A counter with w wildcard bits and volume v hides at most
     min(2^w, floor(v / 10)) heavy hitters.  The /29 1*** (3 wildcards)
     with 35 Mb: min(8, 3) = 3. *)
  Alcotest.(check (float 1e-9)) "volume bound" 0.25
    (recall_beside_leaf ~coarse:(F.sub 0b1 29) ~volume:35.0);
  (* The /31 001* (1 wildcard) with 35 Mb: the leaf bound min(2, 3) = 2. *)
  Alcotest.(check (float 1e-9)) "leaf bound" (1.0 /. 3.0)
    (recall_beside_leaf ~coarse:(F.sub 0b001 31) ~volume:35.0);
  Alcotest.(check (float 1e-9)) "below threshold: none" 1.0
    (recall_beside_leaf ~coarse:(F.sub 0b1 29) ~volume:9.9)

(* ---- HH ---- *)

let test_hh_report_converges () =
  let _, last = F.converged_task ~per_switch:16 ~epochs:6 () in
  match last with
  | Some (report, estimate) ->
    Alcotest.check prefix_set "exactly the true HHs"
      (List.sort Prefix.compare (List.map F.leaf F.true_hh_leaves))
      (reported_prefixes report);
    Alcotest.(check bool) "estimated recall is 1 when fully resolved" true
      (estimate.(Accuracy.global) > 0.99)
  | None -> Alcotest.fail "no epochs ran"

let test_hh_report_magnitudes () =
  let _, last = F.converged_task ~per_switch:16 ~epochs:6 () in
  match last with
  | Some (report, _) ->
    List.iter
      (fun (i : Report.item) ->
        let expected = if Prefix.equal i.Report.prefix (F.leaf 0b0000) then 12.0 else 11.0 in
        Alcotest.(check (float 1e-6)) "volume" expected i.Report.magnitude)
      report.Report.items
  | None -> Alcotest.fail "no epochs ran"

let test_hh_estimate_conservative_at_root () =
  (* With one counter (the whole filter, volume 46 > theta), the estimator
     must see 0 detected and some missed, hence low recall. *)
  let task = Task.create ~id:0 ~spec:(F.spec ()) ~topology:(F.topology ())
      ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task 1 in
  let data = F.epoch_data ~epoch:0 () in
  let _, estimate = F.drive_task task ~data ~allocations ~epoch:0 in
  Alcotest.(check bool) "recall below 0.5" true (estimate.(Accuracy.global) < 0.5)

let test_hh_estimate_within_bounds () =
  for per_switch = 1 to 8 do
    let task = Task.create ~id:0 ~spec:(F.spec ()) ~topology:(F.topology ())
      ~storage:(F.fresh_storage ()) () in
    let allocations = F.allocations_of task per_switch in
    for epoch = 0 to 3 do
      let data = F.epoch_data ~epoch () in
      let _, estimate = F.drive_task task ~data ~allocations ~epoch in
      Array.iter
        (fun v -> Alcotest.(check bool) "figure in [0,1]" true (v >= 0.0 && v <= 1.0))
        estimate
    done
  done

let test_hh_no_false_positives () =
  (* TCAM counters are exact: every reported HH must be a true one
     (precision 1, the reason the paper estimates recall). *)
  let task = Task.create ~id:0 ~spec:(F.spec ()) ~topology:(F.topology ())
      ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task 5 in
  for epoch = 0 to 5 do
    let data = F.epoch_data ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    List.iter
      (fun (i : Report.item) ->
        Alcotest.(check bool) "reported HH is true" true
          (List.exists (fun b -> Prefix.equal (F.leaf b) i.Report.prefix) F.true_hh_leaves))
      report.Report.items
  done

(* ---- HHH ---- *)

let test_hhh_detects_true_set () =
  let _, last =
    F.converged_task ~kind:Task_spec.Hierarchical_heavy_hitter ~per_switch:16 ~epochs:6 ()
  in
  match last with
  | Some (report, estimate) ->
    Alcotest.check prefix_set "true HHH set"
      (List.sort Prefix.compare (F.true_hhh_prefixes ()))
      (reported_prefixes report);
    Alcotest.(check bool) "estimated precision high" true (estimate.(Accuracy.global) >= 0.9)
  | None -> Alcotest.fail "no epochs ran"

let test_hhh_residual_magnitudes () =
  let _, last =
    F.converged_task ~kind:Task_spec.Hierarchical_heavy_hitter ~per_switch:16 ~epochs:6 ()
  in
  match last with
  | Some (report, _) ->
    List.iter
      (fun (i : Report.item) ->
        let expected =
          if Prefix.equal i.Report.prefix (F.leaf 0b0000) then 12.0
          else if Prefix.equal i.Report.prefix (F.sub 0b010 31) then 13.0
          else 11.0
        in
        Alcotest.(check (float 1e-6)) "residual volume" expected i.Report.magnitude)
      report.Report.items
  | None -> Alcotest.fail "no epochs ran"

(* For the precision-value case analysis, feed counters by hand so the
   monitor still holds exactly one coarse counter when detect runs
   (drive_task would reconfigure it). *)
let root_only_detection ~threshold =
  let spec = F.spec ~kind:Task_spec.Hierarchical_heavy_hitter ~threshold () in
  let task = Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) () in
  Task.read_traffic task (F.epoch_data ~epoch:0 ());
  let items = Items.create ~values:true () in
  Hhh.detect (Hhh.create (Task.monitor task) items);
  List.init items.Items.n (fun i -> items.Items.vals.(i))

let test_hhh_precision_values_cases () =
  (* The filter counter holds volume 46 > 2*theta with unknown descendants:
     some descendant must itself be a HHH, so the value is 0. *)
  match root_only_detection ~threshold:10.0 with
  | [ value ] -> Alcotest.(check (float 1e-9)) "volume > 2*theta cannot be a true HHH" 0.0 value
  | _ -> Alcotest.fail "expected exactly one detection at the root"

let test_hhh_ambiguous_half_value () =
  (* theta < 46 <= 2*theta with unknown descendants: ambiguous, value 0.5. *)
  match root_only_detection ~threshold:30.0 with
  | [ value ] -> Alcotest.(check (float 1e-9)) "ambiguous value" 0.5 value
  | _ -> Alcotest.fail "expected one detection"

let test_hhh_estimate_bounds () =
  for per_switch = 1 to 8 do
    let spec = F.spec ~kind:Task_spec.Hierarchical_heavy_hitter () in
    let task =
      Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) ()
    in
    let allocations = F.allocations_of task per_switch in
    for epoch = 0 to 3 do
      let data = F.epoch_data ~epoch () in
      let _, estimate = F.drive_task task ~data ~allocations ~epoch in
      Alcotest.(check bool) "precision in [0,1]" true
        (estimate.(Accuracy.global) >= 0.0 && estimate.(Accuracy.global) <= 1.0)
    done
  done

(* HHH recall estimated like the HH estimator (Section 5.3: "for HHH
   tasks, recall can be calculated similar to HH tasks"): detected HHHs
   over detected plus a bound on the HHHs hiding inside coarse detections,
   [floor (residual / threshold) - 1] each.  The program does not run it;
   the tests below check the paper's observation that it tracks
   precision. *)
let estimate_recall monitor =
  let spec = Dream_tasks.Monitor.spec monitor in
  let threshold = spec.Task_spec.threshold in
  let items = Items.create ~values:true () in
  Hhh.detect (Hhh.create monitor items);
  let missed = ref 0 in
  for i = 0 to items.Items.n - 1 do
    if Prefix.key_length items.Items.keys.(i) < spec.Task_spec.leaf_length then begin
      let hidden = int_of_float (Float.floor (items.Items.mags.(i) /. threshold)) - 1 in
      missed := !missed + max 0 hidden
    end
  done;
  let detected = items.Items.n in
  if detected + !missed = 0 then 1.0
  else float_of_int detected /. float_of_int (detected + !missed)

let test_hhh_recall_estimate () =
  (* Fully resolved: recall 1 (no coarse detections hiding finer HHHs). *)
  let task, _ =
    F.converged_task ~kind:Task_spec.Hierarchical_heavy_hitter ~per_switch:16 ~epochs:6 ()
  in
  Alcotest.(check (float 1e-9)) "fully resolved recall" 1.0
    (estimate_recall (Task.monitor task));
  (* A single coarse counter with volume 46 (threshold 10) may hide
     floor(46/10) - 1 = 3 more HHHs: recall 1/4.  Feed counters without
     configuring so the monitor still holds only the root. *)
  let spec = F.spec ~kind:Task_spec.Hierarchical_heavy_hitter () in
  let coarse =
    Task.create ~id:1 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) ()
  in
  Task.read_traffic coarse (F.epoch_data ~epoch:0 ());
  Alcotest.(check (float 1e-9)) "coarse recall 1/4" 0.25
    (estimate_recall (Task.monitor coarse))

let test_hhh_recall_tracks_precision () =
  (* The paper: "recall is correlated with precision" — as resources grow,
     both estimates rise together. *)
  let estimates per_switch =
    let task, last =
      F.converged_task ~kind:Task_spec.Hierarchical_heavy_hitter ~per_switch ~epochs:5 ()
    in
    let precision =
      match last with Some (_, e) -> e.(Accuracy.global) | None -> 0.0
    in
    (precision, estimate_recall (Task.monitor task))
  in
  let p_small, r_small = estimates 1 in
  let p_large, r_large = estimates 16 in
  Alcotest.(check bool) "precision grows" true (p_large >= p_small);
  Alcotest.(check bool) "recall grows" true (r_large >= r_small)

(* ---- CD ---- *)

(* CD warm-up traffic: the example volumes with a deterministic wobble, so
   per-prefix deviations stay non-zero and the drill builds leaf-level
   history (flat traffic would leave the monitor at the root). *)
let wobbled ~epoch =
  let w = if epoch mod 2 = 0 then 1.15 else 0.85 in
  List.map (fun (b, v) -> (b, v *. w)) F.example_volumes

let warm_cd_task ~allocs ~epochs =
  let spec = F.spec ~kind:Task_spec.Change_detection () in
  let task = Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task allocs in
  for epoch = 0 to epochs - 1 do
    let data = F.epoch_data ~volumes:(wobbled ~epoch) ~epoch () in
    ignore (F.drive_task task ~data ~allocations ~epoch)
  done;
  (task, allocations)

let detect_change task allocations ~volumes ~from_epoch =
  (* The change persists; the drill may need an epoch or two to reach the
     changed leaf, so scan a short window. *)
  let found = ref false in
  for epoch = from_epoch to from_epoch + 3 do
    let data = F.epoch_data ~volumes ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    if
      List.exists
        (fun (i : Report.item) -> Prefix.equal i.Report.prefix (F.leaf 0b0001))
        report.Report.items
    then found := true
  done;
  !found

let test_cd_detects_step_change () =
  let task, allocations = warm_cd_task ~allocs:16 ~epochs:10 in
  let changed =
    List.map (fun (b, v) -> if b = 0b0001 then (b, 30.0) else (b, v)) F.example_volumes
  in
  Alcotest.(check bool) "0001 reported as change" true
    (detect_change task allocations ~volumes:changed ~from_epoch:10)

let test_cd_quiet_on_steady_traffic () =
  let spec = F.spec ~kind:Task_spec.Change_detection () in
  let task = Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task 16 in
  for epoch = 0 to 9 do
    let data = F.epoch_data ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    if epoch > 2 then
      Alcotest.(check int) (Printf.sprintf "no changes at epoch %d" epoch) 0 (Report.size report)
  done

let test_cd_detects_disappearance () =
  let task, allocations = warm_cd_task ~allocs:16 ~epochs:10 in
  (* 0000 (volume 12, mean ~12 after warm-up) vanishes; the warmed leaf
     mean makes the |0 - mean| deviation exceed the threshold. *)
  let gone = List.filter (fun (b, _) -> b <> 0b0000) F.example_volumes in
  let found = ref false in
  for epoch = 10 to 12 do
    let data = F.epoch_data ~volumes:gone ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    if
      List.exists
        (fun (i : Report.item) -> Prefix.equal i.Report.prefix (F.leaf 0b0000))
        report.Report.items
    then found := true
  done;
  Alcotest.(check bool) "0000 disappearance reported" true !found

(* ---- Ground truth ---- *)

let test_ground_truth_hh () =
  let data = F.epoch_data ~epoch:0 () in
  let truth =
    Ground_truth.true_heavy_hitters (F.spec ()) data.Dream_traffic.Epoch_data.combined
  in
  Alcotest.check prefix_set "true HHs"
    (List.sort Prefix.compare (List.map F.leaf F.true_hh_leaves))
    (prefixes_of truth)

(* The true HHHs of an epoch as [Ground_truth.evaluate] scores them: HHH
   accuracy is precision, so a one-prefix report scores 1 when its prefix
   is a true HHH and 0 when it is not.  Every prefix under the 4-bit
   filter is probed. *)
let scored_hhhs data =
  let gt =
    Ground_truth.create ~storage:(F.fresh_storage ())
      (F.spec ~kind:Task_spec.Hierarchical_heavy_hitter ())
  in
  let rec under p =
    p :: (match Prefix.children p with Some (l, r) -> under l @ under r | None -> [])
  in
  List.filter
    (fun p -> (Ground_truth.evaluate gt data (Items.of_keys [ Prefix.key p ])).real > 0.5)
    (under F.filter)
  |> List.sort Prefix.compare

let test_ground_truth_hhh () =
  Alcotest.check prefix_set "true HHHs"
    (List.sort Prefix.compare (F.true_hhh_prefixes ()))
    (scored_hhhs (F.epoch_data ~epoch:0 ()))

let test_ground_truth_hh_recall_scoring () =
  let spec = F.spec () in
  let gt = Ground_truth.create ~storage:(F.fresh_storage ()) spec in
  let data = F.epoch_data ~epoch:0 () in
  (* A report with one of the two true HHs scores recall 0.5. *)
  let report =
    {
      Report.kind = Task_spec.Heavy_hitter;
      epoch = 0;
      items = [ { Report.prefix = F.leaf 0b0000; magnitude = 12.0 } ];
    }
  in
  Alcotest.(check (float 1e-9)) "recall 1/2" 0.5
    (Ground_truth.evaluate gt data (items_of_report report)).real

let test_ground_truth_hhh_precision_scoring () =
  let spec = F.spec ~kind:Task_spec.Hierarchical_heavy_hitter () in
  let gt = Ground_truth.create ~storage:(F.fresh_storage ()) spec in
  let data = F.epoch_data ~epoch:0 () in
  (* Two reported, one true: precision 0.5. *)
  let report =
    {
      Report.kind = Task_spec.Hierarchical_heavy_hitter;
      epoch = 0;
      items =
        [
          { Report.prefix = F.leaf 0b0000; magnitude = 12.0 };
          { Report.prefix = F.sub 0b00 30; magnitude = 14.0 };
        ];
    }
  in
  Alcotest.(check (float 1e-9)) "precision 1/2" 0.5
    (Ground_truth.evaluate gt data (items_of_report report)).real

let test_ground_truth_vacuous_accuracy () =
  let spec = F.spec ~threshold:1000.0 () in
  let gt = Ground_truth.create ~storage:(F.fresh_storage ()) spec in
  let data = F.epoch_data ~epoch:0 () in
  Alcotest.(check (float 1e-9)) "no true items: recall 1" 1.0
    (Ground_truth.evaluate gt data (Items.create ())).real

let test_ground_truth_cd_changes () =
  let spec = F.spec ~kind:Task_spec.Change_detection () in
  let steady = F.epoch_data ~epoch:0 () in
  (* 0001 jumps 2 -> 30: ground truth must flag exactly that leaf.  Recall
     is 0 for an empty report and 1 for [0001] alone only if the change set
     is exactly {0001}. *)
  let changed =
    List.map (fun (b, v) -> if b = 0b0001 then (b, 30.0) else (b, v)) F.example_volumes
  in
  let data = F.epoch_data ~volumes:changed ~epoch:6 () in
  let recall reported =
    let gt = Ground_truth.create ~storage:(F.fresh_storage ()) spec in
    (* Warm the means. *)
    for _ = 0 to 5 do
      ignore (Ground_truth.evaluate gt steady (Items.create ()))
    done;
    (Ground_truth.evaluate gt data (Items.of_keys (List.map Prefix.key reported))).real
  in
  Alcotest.(check (float 1e-9)) "a change happened" 0.0 (recall []);
  Alcotest.(check (float 1e-9)) "only 0001 changed" 1.0 (recall [ F.leaf 0b0001 ])

(* ---- Properties: convergence to ground truth on random steady traffic ---- *)

(* Random volumes for the 16 leaves of the 4-bit universe. *)
let gen_volumes =
  QCheck.Gen.(
    list_size (int_range 2 10)
      (pair (int_bound 15) (map (fun v -> float_of_int v /. 2.0) (int_range 1 50))))

let arb_volumes =
  QCheck.make
    ~print:(fun vs ->
      String.concat ";" (List.map (fun (b, v) -> Printf.sprintf "%d:%.1f" b v) vs))
    gen_volumes

let converged_report kind volumes =
  let spec = F.spec ~kind () in
  let task = Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task 20 in
  let last = ref None in
  for epoch = 0 to 5 do
    let data = F.epoch_data ~volumes ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    last := Some (data, report)
  done;
  match !last with Some x -> x | None -> assert false

let prop_hh_converges_to_truth =
  QCheck.Test.make ~name:"HH report = ground truth on steady traffic" ~count:40 arb_volumes
    (fun volumes ->
      (* Deduplicate leaves (combine volumes). *)
      let data, report = converged_report Task_spec.Heavy_hitter volumes in
      let truth =
        Ground_truth.true_heavy_hitters (F.spec ())
          data.Dream_traffic.Epoch_data.combined
      in
      Prefix.Set.equal (Fixtures.report_prefixes report) (Prefix.Set.of_list (prefixes_of truth)))

let prop_hhh_converges_to_truth =
  QCheck.Test.make ~name:"HHH report = ground truth on steady traffic" ~count:40 arb_volumes
    (fun volumes ->
      let data, report = converged_report Task_spec.Hierarchical_heavy_hitter volumes in
      Prefix.Set.equal (Fixtures.report_prefixes report) (Prefix.Set.of_list (scored_hhhs data)))

(* ---- End-to-end: estimator consistency with ground truth ---- *)

let test_hh_real_accuracy_reaches_one () =
  let spec = F.spec () in
  let gt = Ground_truth.create ~storage:(F.fresh_storage ()) spec in
  let task = Task.create ~id:0 ~spec ~topology:(F.topology ()) ~storage:(F.fresh_storage ()) () in
  let allocations = F.allocations_of task 16 in
  let final = ref 0.0 in
  for epoch = 0 to 5 do
    let data = F.epoch_data ~epoch () in
    let report, _ = F.drive_task task ~data ~allocations ~epoch in
    final := (Ground_truth.evaluate gt data (items_of_report report)).real
  done;
  Alcotest.(check (float 1e-9)) "real recall 1 after convergence" 1.0 !final

let () =
  Alcotest.run "dream.tasks.estimators"
    [
      ( "hh",
        [
          Alcotest.test_case "report converges to true HHs" `Quick test_hh_report_converges;
          Alcotest.test_case "report magnitudes" `Quick test_hh_report_magnitudes;
          Alcotest.test_case "conservative at root" `Quick test_hh_estimate_conservative_at_root;
          Alcotest.test_case "estimates within bounds" `Quick test_hh_estimate_within_bounds;
          Alcotest.test_case "no false positives" `Quick test_hh_no_false_positives;
        ] );
      ("missed-bound", [ Alcotest.test_case "min of two bounds" `Quick test_missed_bound ]);
      ( "hhh",
        [
          Alcotest.test_case "detects true set" `Quick test_hhh_detects_true_set;
          Alcotest.test_case "residual magnitudes" `Quick test_hhh_residual_magnitudes;
          Alcotest.test_case "precision value: >2theta is false" `Quick
            test_hhh_precision_values_cases;
          Alcotest.test_case "precision value: ambiguous is 0.5" `Quick
            test_hhh_ambiguous_half_value;
          Alcotest.test_case "estimates within bounds" `Quick test_hhh_estimate_bounds;
          Alcotest.test_case "recall estimate" `Quick test_hhh_recall_estimate;
          Alcotest.test_case "recall tracks precision" `Quick test_hhh_recall_tracks_precision;
        ] );
      ( "cd",
        [
          Alcotest.test_case "detects step change" `Quick test_cd_detects_step_change;
          Alcotest.test_case "quiet on steady traffic" `Quick test_cd_quiet_on_steady_traffic;
          Alcotest.test_case "detects disappearance" `Quick test_cd_detects_disappearance;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "hh set" `Quick test_ground_truth_hh;
          Alcotest.test_case "hhh set" `Quick test_ground_truth_hhh;
          Alcotest.test_case "hh recall scoring" `Quick test_ground_truth_hh_recall_scoring;
          Alcotest.test_case "hhh precision scoring" `Quick test_ground_truth_hhh_precision_scoring;
          Alcotest.test_case "vacuous accuracy is 1" `Quick test_ground_truth_vacuous_accuracy;
          Alcotest.test_case "cd change set" `Quick test_ground_truth_cd_changes;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "real recall reaches 1" `Quick test_hh_real_accuracy_reaches_one;
          QCheck_alcotest.to_alcotest prop_hh_converges_to_truth;
          QCheck_alcotest.to_alcotest prop_hhh_converges_to_truth;
        ] );
    ]
