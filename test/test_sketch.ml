(* Tests for dream.sketch: Count-Min invariants (qcheck), sketch-based HH
   detection on the worked example, distinct counting, sampled HH and the
   super-spreader sketch. *)

module Prefix = Dream_prefix.Prefix
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Task_spec = Dream_tasks.Task_spec
module Count_min = Dream_sketch.Count_min
module Sketch_hh = Dream_sketch.Sketch_hh
module F = Fixtures

(* ---- Count-Min ---- *)

let test_cm_create_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Count_min.create: width must be positive")
    (fun () -> ignore (Count_min.create ~width:0 ~depth:4 ~seed:1));
  Alcotest.check_raises "depth 0" (Invalid_argument "Count_min.create: depth must be positive")
    (fun () -> ignore (Count_min.create ~width:8 ~depth:0 ~seed:1))

let test_cm_basic_counts () =
  let s = Count_min.create ~width:64 ~depth:4 ~seed:7 in
  Count_min.update s ~key:42 10.0;
  Count_min.update s ~key:42 5.0;
  Count_min.update s ~key:99 3.0;
  Alcotest.(check bool) "estimate >= true" true (Count_min.estimate s ~key:42 >= 15.0)

let test_cm_unseen_key_small () =
  let s = Count_min.create ~width:1024 ~depth:4 ~seed:7 in
  Count_min.update s ~key:1 100.0;
  (* An unseen key collides with probability ~ depth/width per row; with
     width 1024 its estimate is almost surely 0. *)
  Alcotest.(check (float 1e-9)) "unseen" 0.0 (Count_min.estimate s ~key:2)

let test_cm_reset () =
  let s = Count_min.create ~width:16 ~depth:2 ~seed:7 in
  Count_min.update s ~key:1 5.0;
  Count_min.reset s;
  Alcotest.(check (float 1e-9)) "zeroed" 0.0 (Count_min.estimate s ~key:1)

let gen_stream =
  QCheck.Gen.(list_size (int_range 1 200) (pair (int_bound 500) (int_range 1 50)))

let prop_cm_never_undercounts =
  QCheck.Test.make ~name:"estimate never under-counts" ~count:100 (QCheck.make gen_stream)
    (fun stream ->
      let s = Count_min.create ~width:64 ~depth:4 ~seed:3 in
      List.iter (fun (key, v) -> Count_min.update s ~key (float_of_int v)) stream;
      let truth = Hashtbl.create 64 in
      List.iter
        (fun (key, v) ->
          Hashtbl.replace truth key
            ((match Hashtbl.find_opt truth key with Some x -> x | None -> 0.0)
            +. float_of_int v))
        stream;
      Hashtbl.fold
        (fun key true_v ok -> ok && Count_min.estimate s ~key >= true_v -. 1e-6)
        truth true)

(* ---- Sketch HH ---- *)

let example_aggregate () =
  (F.epoch_data ~epoch:0 ()).Dream_traffic.Epoch_data.combined

let test_sketch_hh_perfect_recall () =
  (* A generously sized sketch detects exactly the true HHs. *)
  let task = Sketch_hh.create ~spec:(F.spec ()) ~cells:4096 ~seed:1 in
  Sketch_hh.observe_epoch task (example_aggregate ());
  (* Recall and precision both 1: the detections are exactly the true HHs. *)
  Alcotest.(check (float 1e-9)) "recall 1" 1.0
    (Sketch_hh.real_accuracy task (example_aggregate ()) ~precision:false);
  Alcotest.(check (float 1e-9)) "exact detection" 1.0
    (Sketch_hh.real_accuracy task (example_aggregate ()) ~precision:true)

let test_sketch_hh_recall_never_below_one () =
  (* Count-Min never under-counts, so every true HH is always reported,
     whatever the sketch size. *)
  List.iter
    (fun cells ->
      let task = Sketch_hh.create ~spec:(F.spec ()) ~cells ~seed:2 in
      Sketch_hh.observe_epoch task (example_aggregate ());
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "recall 1 at %d cells" cells)
        1.0
        (Sketch_hh.real_accuracy task (example_aggregate ()) ~precision:false))
    [ 8; 16; 64; 1024 ]

let test_sketch_hh_small_sketch_lower_precision () =
  (* Tiny sketches collide: more detections, lower precision. *)
  let small = Sketch_hh.create ~spec:(F.spec ()) ~cells:8 ~seed:3 in
  let large = Sketch_hh.create ~spec:(F.spec ()) ~cells:4096 ~seed:3 in
  Sketch_hh.observe_epoch small (example_aggregate ());
  Sketch_hh.observe_epoch large (example_aggregate ());
  Alcotest.(check bool) "small really less precise" true
    (Sketch_hh.real_accuracy small (example_aggregate ()) ~precision:true
    <= Sketch_hh.real_accuracy large (example_aggregate ()) ~precision:true)

(* ---- Distinct counting ---- *)

module Distinct = Dream_sketch.Distinct
module Super_spreader = Dream_sketch.Super_spreader

let test_distinct_counts () =
  let d = Distinct.create ~bits:1024 ~seed:3 in
  for i = 1 to 100 do
    Distinct.add d i
  done;
  (* Re-adding the same elements must not move the estimate. *)
  for i = 1 to 100 do
    Distinct.add d i
  done;
  let est = Distinct.estimate d in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f near 100" est)
    true
    (Float.abs (est -. 100.0) < 15.0)

let test_distinct_empty_and_saturated () =
  let d = Distinct.create ~bits:8 ~seed:1 in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Distinct.estimate d);
  for i = 0 to 999 do
    Distinct.add d i
  done;
  (* Every bit set: the estimate saturates at bits * ln bits. *)
  Alcotest.(check (float 1e-9)) "saturates" (8.0 *. Float.log 8.0) (Distinct.estimate d);
  Distinct.reset d;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Distinct.estimate d)

(* ---- Sampled HH (NetFlow-style baseline) ---- *)

module Sampled_hh = Dream_sketch.Sampled_hh

let test_sampled_full_budget_exact () =
  (* With a budget covering every flow, sampling is exact. *)
  let task = Sampled_hh.create ~spec:(F.spec ()) ~budget:1000 ~seed:3 () in
  Sampled_hh.observe_epoch task (example_aggregate ());
  Alcotest.(check (float 1e-9)) "recall 1" 1.0
    (Sampled_hh.real_accuracy task (example_aggregate ()) ~precision:false);
  Alcotest.(check (float 1e-9)) "precision 1" 1.0
    (Sampled_hh.real_accuracy task (example_aggregate ()) ~precision:true)

let test_sampled_small_budget_lossy () =
  (* A budget of 2 records out of 8 flows misses heavy hitters some
     epochs: average recall over many epochs sits strictly below 1. *)
  let task = Sampled_hh.create ~spec:(F.spec ()) ~budget:2 ~seed:5 () in
  let recalls = ref [] in
  for _ = 1 to 50 do
    Sampled_hh.observe_epoch task (example_aggregate ());
    recalls :=
      Sampled_hh.real_accuracy task (example_aggregate ()) ~precision:false :: !recalls
  done;
  let mean = List.fold_left ( +. ) 0.0 !recalls /. 50.0 in
  Alcotest.(check bool) (Printf.sprintf "mean recall %.2f below 1" mean) true (mean < 0.999);
  Alcotest.(check bool) "but not hopeless" true (mean > 0.1)

let test_sampled_invalid () =
  Alcotest.check_raises "budget 0" (Invalid_argument "Sampled_hh.create: budget must be positive")
    (fun () -> ignore (Sampled_hh.create ~spec:(F.spec ()) ~budget:0 ~seed:1 ()))

(* ---- Super-spreader ---- *)

let scan_epoch sketch =
  Super_spreader.begin_epoch sketch;
  (* 50 normal sources contacting 3 destinations each... *)
  for src = 1 to 50 do
    for dst = 1 to 3 do
      Super_spreader.observe sketch ~src ~dst:((src * 100) + dst)
    done
  done;
  (* ... and two scanners sweeping 200 destinations. *)
  List.iter
    (fun src ->
      for dst = 1 to 200 do
        Super_spreader.observe sketch ~src ~dst
      done)
    [ 777; 888 ]

let test_spreader_detects_scanners () =
  let sketch = Super_spreader.create ~cells:4096 ~threshold:50 ~seed:11 in
  scan_epoch sketch;
  let detected = List.map fst (Super_spreader.detected sketch) in
  Alcotest.(check (list int)) "exactly the scanners" [ 777; 888 ] detected;
  Alcotest.(check bool) "high estimated precision" true
    (Super_spreader.estimate_precision sketch > 0.9)

let test_spreader_perfect_recall_small_sketch () =
  (* Collisions only inflate fan-out, so scanners are always detected. *)
  let sketch = Super_spreader.create ~cells:16 ~threshold:50 ~seed:13 in
  scan_epoch sketch;
  let detected = List.map fst (Super_spreader.detected sketch) in
  Alcotest.(check bool) "777 detected" true (List.mem 777 detected);
  Alcotest.(check bool) "888 detected" true (List.mem 888 detected);
  (* And the tiny sketch knows it may be over-reporting. *)
  Alcotest.(check bool) "estimated precision drops" true
    (Super_spreader.estimate_precision sketch < 1.0)

let test_spreader_epoch_reset () =
  let sketch = Super_spreader.create ~cells:4096 ~threshold:50 ~seed:11 in
  scan_epoch sketch;
  Super_spreader.begin_epoch sketch;
  Alcotest.(check int) "no detections after reset" 0
    (List.length (Super_spreader.detected sketch))

let () =
  Alcotest.run "dream.sketch"
    [
      ( "count-min",
        [
          Alcotest.test_case "create invalid" `Quick test_cm_create_invalid;
          Alcotest.test_case "basic counts" `Quick test_cm_basic_counts;
          Alcotest.test_case "unseen key" `Quick test_cm_unseen_key_small;
          Alcotest.test_case "reset" `Quick test_cm_reset;
          QCheck_alcotest.to_alcotest prop_cm_never_undercounts;
        ] );
      ( "sketch-hh",
        [
          Alcotest.test_case "perfect recall, exact detection" `Quick test_sketch_hh_perfect_recall;
          Alcotest.test_case "recall always 1" `Quick test_sketch_hh_recall_never_below_one;
          Alcotest.test_case "small sketch, lower precision" `Quick
            test_sketch_hh_small_sketch_lower_precision;
        ] );
      ( "distinct",
        [
          Alcotest.test_case "counts" `Quick test_distinct_counts;
          Alcotest.test_case "empty and saturated" `Quick test_distinct_empty_and_saturated;
        ] );
      ( "sampled-hh",
        [
          Alcotest.test_case "full budget is exact" `Quick test_sampled_full_budget_exact;
          Alcotest.test_case "small budget is lossy" `Quick test_sampled_small_budget_lossy;
          Alcotest.test_case "invalid budget" `Quick test_sampled_invalid;
        ] );
      ( "super-spreader",
        [
          Alcotest.test_case "detects scanners" `Quick test_spreader_detects_scanners;
          Alcotest.test_case "perfect recall on tiny sketch" `Quick
            test_spreader_perfect_recall_small_sketch;
          Alcotest.test_case "epoch reset" `Quick test_spreader_epoch_reset;
        ] );
    ]
