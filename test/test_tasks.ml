(* Tests for dream.tasks' task-independent machinery: counters, the monitor
   configuration, divide-and-merge (Algorithm 2), the multi-switch cover,
   and the partition invariant under random drills. *)

module Rng = Dream_util.Rng
module Prefix = Prefix_ops
module Switch_id = Dream_traffic.Switch_id
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Flow = Dream_traffic.Flow
module Epoch_data = Dream_traffic.Epoch_data
module Task_spec = Dream_tasks.Task_spec
module Monitor = Monitor_views
module Divide_merge = Dream_tasks.Divide_merge
module Score = Dream_tasks.Score
module Gc_stats = Dream_obs.Gc_stats

let fresh_storage = Fixtures.fresh_storage

(* Whether the mask holds the sub-filter bit of a switch. *)
let mask_mem topology sw m =
  let b = Topology.bit_of_switch topology sw in
  b >= 0 && Switch_mask.mem_bit b m

(* A fair coin: the low bit of one draw. *)
let coin rng = Int64.logand (Rng.bits64 rng) 1L = 1L

(* A 4-bit universe: filter 10.0.0.0/28, leaves at /32.  Two switches split
   it at /29 (0*** on one switch, 1*** on the other). *)
let filter = Prefix.of_string "10.0.0.0/28"

let leaf bits = Prefix.make ~bits:(Prefix.bits filter lor bits) ~length:32

let sub bits length = Prefix.make ~bits:(Prefix.bits filter lor (bits lsl (32 - length))) ~length

let mk_topology () =
  Topology.create (Rng.create 1) ~filter ~num_switches:2 ~switches_per_task:2

let spec ?(kind = Task_spec.Heavy_hitter) () =
  Task_spec.make ~kind ~filter ~leaf_length:32 ~threshold:10.0 ()

(* A monitor and a divide-and-merge workspace of its own. *)
let with_divide_merge m = (m, Divide_merge.create ())

let mk_monitor ?kind () =
  with_divide_merge
    (Monitor.create ~storage:(fresh_storage ()) ~spec:(spec ?kind ()) ~topology:(mk_topology ()))

(* The monitor's slots, in prefix order. *)
let counters m = Monitor.fold List.cons m []

(* The worked example: volumes per active leaf, threshold 10.
   HHs: 0000 (12), 0111 (11).  HHHs: 0000, 010*, 0111. *)
let example_flows =
  [
    Flow.make ~addr:(Prefix.bits (leaf 0b0000)) ~volume:12.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b0001)) ~volume:2.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b0100)) ~volume:6.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b0101)) ~volume:7.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b0111)) ~volume:11.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b1010)) ~volume:3.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b1100)) ~volume:4.0;
    Flow.make ~addr:(Prefix.bits (leaf 0b1111)) ~volume:1.0;
  ]

let example_epoch ~epoch =
  let topology = mk_topology () in
  Epoch_data.of_flows ~epoch
    (List.filter_map
       (fun (f : Flow.t) ->
         match Topology.switch_of_address topology f.Flow.addr with
         | Some sw -> Some (sw, [ f ])
         | None -> None)
       example_flows)

(* Drive one measurement epoch by hand: read desired rules straight off the
   aggregates, score, and configure. *)
let step monitor dm ~allocations ~epoch =
  Fixtures.ingest_readings monitor (Fixtures.readings_of monitor (example_epoch ~epoch));
  Score.apply monitor;
  Divide_merge.configure dm monitor ~allocations

(* [n] entries on every switch the monitor sees, per sub-filter bit. *)
let allocations_of monitor n =
  let switches = Monitor.switches monitor in
  Array.init (Topology.switches_per_task (Monitor.topology monitor)) (fun b ->
      if Switch_mask.mem_bit b switches then n else 0)

(* ---- Counter slots ---- *)

(* A monitor whose one counter is its filter [p], on switch 0 alone: the
   slot accessors on a counter of known prefix. *)
let single_counter ?(kind = Task_spec.Heavy_hitter) p =
  let topology = Topology.create (Rng.create 1) ~filter:p ~num_switches:1 ~switches_per_task:1 in
  let spec = Task_spec.make ~kind ~filter:p ~leaf_length:32 ~threshold:10.0 () in
  Monitor.create ~storage:(fresh_storage ()) ~spec ~topology

(* Replace the counter's volumes with one reading on switch 0. *)
let read_volume m v = Fixtures.ingest_readings m [ (0, [ (Monitor.prefix m 0, v) ]) ]

let test_counter_basics () =
  let m = single_counter (sub 0b01 30) in
  Alcotest.(check bool) "fresh" true (Monitor.fresh m 0);
  Alcotest.(check int) "wildcards to /32" 2 (Monitor.wildcards m 0);
  Alcotest.(check bool) "not exact" false (Monitor.is_exact m 0);
  read_volume m 5.0;
  Alcotest.(check bool) "no longer fresh" false (Monitor.fresh m 0);
  Alcotest.(check (float 1e-9)) "total" 5.0 (Monitor.total m 0);
  Alcotest.(check (float 1e-9)) "volume on switch" 5.0 (Monitor.volume_on m 0 0);
  Alcotest.(check (float 1e-9)) "volume elsewhere" 0.0 (Monitor.volume_on m 0 1)

let test_counter_cd_mean () =
  let m = single_counter (sub 0b01 30) in
  read_volume m 10.0;
  Alcotest.(check (float 1e-9)) "no history: deviation 0" 0.0 (Monitor.cd_deviation m 0);
  Monitor.update_means m;
  read_volume m 4.0;
  Alcotest.(check (float 1e-9)) "deviation vs mean 10" 6.0 (Monitor.cd_deviation m 0)

(* ---- Monitor basics ---- *)

let test_monitor_initial () =
  let m, _ = mk_monitor () in
  Alcotest.(check int) "one counter" 1 (Monitor.num_counters m);
  Alcotest.(check bool) "monitors the filter" true (Monitor.find m filter <> None);
  Alcotest.(check int) "usage on each switch" 1 (Monitor.usage m 0);
  Alcotest.(check bool) "partition" true (Monitor.is_partition m)

let test_monitor_drill_finds_heavy_leaves () =
  let m, dm = mk_monitor () in
  let allocations = allocations_of m 16 in
  for epoch = 0 to 5 do
    step m dm ~allocations ~epoch
  done;
  (* After a few epochs the two heavy leaves must be monitored exactly. *)
  Alcotest.(check bool) "0000 monitored" true (Monitor.find m (leaf 0b0000) <> None);
  Alcotest.(check bool) "0111 monitored" true (Monitor.find m (leaf 0b0111) <> None);
  Alcotest.(check bool) "partition maintained" true (Monitor.is_partition m)

let test_monitor_respects_allocation () =
  let m, dm = mk_monitor () in
  let allocations = allocations_of m 3 in
  for epoch = 0 to 7 do
    step m dm ~allocations ~epoch;
    Switch_mask.iter (Monitor.topology m)
      (fun sw b ->
        Alcotest.(check bool)
          (Printf.sprintf "usage <= alloc on %d (epoch %d)" sw epoch)
          true
          (Monitor.usage m b <= 3))
      (Monitor.switches m)
  done

let test_monitor_shrinks_on_reduced_allocation () =
  let m, dm = mk_monitor () in
  let big = allocations_of m 16 in
  for epoch = 0 to 4 do
    step m dm ~allocations:big ~epoch
  done;
  let before = Monitor.num_counters m in
  Alcotest.(check bool) "expanded" true (before > 4);
  let small = allocations_of m 2 in
  step m dm ~allocations:small ~epoch:5;
  Switch_mask.iter (Monitor.topology m)
    (fun _ b -> Alcotest.(check bool) "fits in 2" true (Monitor.usage m b <= 2))
    (Monitor.switches m);
  Alcotest.(check bool) "partition after shrink" true (Monitor.is_partition m)

let test_monitor_zero_allocation_uninstalls () =
  let m, dm = mk_monitor () in
  let topology = Monitor.topology m in
  let allocations = Array.make 2 0 in
  allocations.(Topology.bit_of_switch topology 0) <- 4;
  step m dm ~allocations ~epoch:0;
  Alcotest.(check (list string)) "no rules on switch 1" []
    (List.map Prefix.to_string (Fixtures.rules_for m 1));
  Alcotest.(check bool) "switch 1 inactive" false (mask_mem topology 1 (Monitor.active m));
  Alcotest.(check bool) "switch 0 active" true (mask_mem topology 0 (Monitor.active m))

let test_monitor_bottlenecked () =
  let m, dm = mk_monitor () in
  let allocations = allocations_of m 1 in
  step m dm ~allocations ~epoch:0;
  (* With one counter per switch and the filter spanning both switches,
     both switches are saturated. *)
  Alcotest.(check int) "both bottlenecked" 2
    (Switch_mask.cardinal (Monitor.bottlenecked m ~allocations));
  let loose = allocations_of m 100 in
  Alcotest.(check int) "none bottlenecked under loose allocations" 0
    (Switch_mask.cardinal (Monitor.bottlenecked m ~allocations:loose))

let test_monitor_drill_direction () =
  (* The drill goes toward the heavy side: with a modest budget the heavy
     leaves get exact counters while the light side stays coarse. *)
  let m, dm = mk_monitor () in
  let allocations = allocations_of m 6 in
  for epoch = 0 to 9 do
    step m dm ~allocations ~epoch
  done;
  Alcotest.(check bool) "heavy leaf resolved" true (Monitor.find m (leaf 0b0000) <> None);
  Alcotest.(check bool) "light leaf 1111 not resolved" true (Monitor.find m (leaf 0b1111) = None)

(* ---- Accuracy and Report types ---- *)

module Accuracy = Dream_tasks.Accuracy
module Report = Dream_tasks.Report

(* A switch's overall accuracy is [max global local]; the first sample
   seeds every smoothed figure as is. *)
let test_accuracy_overall () =
  let topology = mk_topology () in
  let task =
    Dream_tasks.Task.create ~id:0 ~spec:(spec ()) ~topology ~storage:(fresh_storage ()) ()
  in
  let a = Accuracy.create 2 in
  a.(Accuracy.global) <- 0.5;
  a.(Accuracy.local 0) <- 0.3;
  a.(Accuracy.local 1) <- 0.9;
  Dream_tasks.Task.smooth task a;
  let overall = Array.make 2 0.0 and used = Array.make 2 0 in
  Dream_tasks.Task.allocator_view task ~overall ~used ~pos:0 ~num_switches:2;
  let on b = overall.(Topology.switch_of_bit topology b) in
  Alcotest.(check (float 0.0)) "global above local" 0.5 (on 0);
  Alcotest.(check (float 0.0)) "local above global" 0.9 (on 1);
  Alcotest.(check (float 0.0)) "smoothed global" 0.5 (Dream_tasks.Task.smoothed_global task)

let test_report_helpers () =
  let report =
    {
      Report.kind = Task_spec.Heavy_hitter;
      epoch = 3;
      items =
        [
          { Report.prefix = leaf 0b0000; magnitude = 12.0 };
          { Report.prefix = leaf 0b0111; magnitude = 11.0 };
        ];
    }
  in
  Alcotest.(check int) "size" 2 (Report.size report);
  Alcotest.(check int) "prefix set" 2 (Prefix.Set.cardinal (Fixtures.report_prefixes report));
  (* pp must render without raising. *)
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Report.pp report) > 0)

(* ---- Wider topologies ---- *)

let test_monitor_eight_switches () =
  (* A /28 filter split over 8 switches (subfilters /31): the partition and
     budgets must hold through drills with uneven allocations. *)
  let topology =
    Topology.create (Rng.create 3)
      ~filter:(Prefix.of_string "10.0.0.0/28")
      ~num_switches:8 ~switches_per_task:8
  in
  let spec = Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:10.0 () in
  let m, dm = with_divide_merge (Monitor.create ~storage:(fresh_storage ()) ~spec ~topology) in
  let allocations = Array.init 8 (fun b -> 1 + (Topology.switch_of_bit topology b mod 3)) in
  for epoch = 0 to 6 do
    let data =
      Epoch_data.of_flows ~epoch
        (List.filter_map
           (fun (f : Flow.t) ->
             match Topology.switch_of_address topology f.Flow.addr with
             | Some sw -> Some (sw, [ f ])
             | None -> None)
           example_flows)
    in
    Fixtures.ingest_readings m (Fixtures.readings_of m data);
    Score.apply m;
    Divide_merge.configure dm m ~allocations;
    Alcotest.(check bool) "partition" true (Monitor.is_partition m);
    Array.iteri
      (fun b alloc ->
        Alcotest.(check bool)
          (Printf.sprintf "budget on %d" (Topology.switch_of_bit topology b))
          true
          (Monitor.usage m b <= alloc))
      allocations
  done

(* ---- Cover, through configure ---- *)

(* cover() runs only inside configure, so each case drives a configure and
   checks the monitor's checkpoint text against the boxed reference monitor
   driven the same way: its per-slot bitmask cover() is the oracle.  The
   text holds every counter's prefix and score, so a different pick shows
   even where the divides that follow restore the same prefixes. *)

module Reference = Reference_monitor
module Codec = Dream_util.Codec

(* A monitor, its workspace and the reference, driven in lockstep. *)
type twin = { m : Monitor.t; dm : Divide_merge.t; r : Reference.t }

let twin ~spec ~topology =
  let m, dm = with_divide_merge (Monitor.create ~storage:(fresh_storage ()) ~spec ~topology) in
  { m; dm; r = Reference.create ~spec ~topology }

let monitor_text m =
  Codec.encode
    (Monitor.codec ~spec:(Monitor.spec m) ~topology:(Monitor.topology m)
       ~storage:(fresh_storage ()))
    m

let configure_both tw ~allocations =
  Divide_merge.configure tw.dm tw.m ~allocations;
  Reference.configure tw.r
    ~allocations:
      (Reference_switch_set.map_of_bits (Monitor.topology tw.m) (Monitor.switches tw.m)
         allocations)

(* Set slot [i]'s score to [s] in both. *)
let set_score_both tw i s =
  Monitor.set_score tw.m i s;
  (List.nth (Reference.fold List.cons tw.r []) i).Reference.Counter.score <- s

let check_reference tw =
  Alcotest.(check string) "checkpoint text = reference" (Reference.emit tw.r) (monitor_text tw.m)

(* The worked example's twin after five epochs at 8 entries a switch. *)
let stepped_twin () =
  let tw = twin ~spec:(spec ()) ~topology:(mk_topology ()) in
  let allocations = allocations_of tw.m 8 in
  for epoch = 0 to 4 do
    let readings = Fixtures.readings_of tw.m (example_epoch ~epoch) in
    Fixtures.ingest_readings tw.m readings;
    Reference.ingest tw.r readings;
    Score.apply tw.m;
    Reference.rescore_all tw.r;
    configure_both tw ~allocations
  done;
  check_reference tw;
  tw

(* The worked example's two per-bit allocations: each switch's usage, less
   [less b] on bit [b]. *)
let usage_less tw less = Array.init 2 (fun b -> Monitor.usage tw.m b - less b)

let test_cover_empty_set () =
  (* No switch over its allocation and nothing worth dividing: the
     configure covers the empty set and merges nothing. *)
  let tw = stepped_twin () in
  let before = List.map (Monitor.prefix tw.m) (counters tw.m) in
  List.iter (fun i -> set_score_both tw i 0.0) (counters tw.m);
  configure_both tw ~allocations:(usage_less tw (fun _ -> 0));
  Alcotest.(check (list string)) "counters unchanged"
    (List.map Prefix.to_string before)
    (List.map (fun i -> Prefix.to_string (Monitor.prefix tw.m i)) (counters tw.m));
  check_reference tw

let test_cover_single_counter_uncoverable () =
  (* One switch, one counter: dividing it needs a second entry on the
     switch, and with nothing to merge no cover frees one, so the counter
     stays whole. *)
  let topology = Topology.create (Rng.create 1) ~filter ~num_switches:1 ~switches_per_task:1 in
  let tw = twin ~spec:(spec ()) ~topology in
  set_score_both tw 0 50.0;
  configure_both tw ~allocations:[| 1 |];
  Alcotest.(check int) "one counter" 1 (Monitor.num_counters tw.m);
  Alcotest.(check string) "the filter" (Prefix.to_string filter)
    (Prefix.to_string (Monitor.prefix tw.m 0));
  check_reference tw

let test_cover_finds_mergeable_ancestor () =
  (* Every switch holds several counters: one entry less on either is
     freed by merging at an ancestor inside the filter. *)
  for b = 0 to 1 do
    let tw = stepped_twin () in
    let before = Monitor.usage tw.m b in
    Alcotest.(check bool) "several counters" true (before >= 2);
    configure_both tw ~allocations:(usage_less tw (fun b' -> if b' = b then 1 else 0));
    Alcotest.(check bool) (Printf.sprintf "freed on %d" b) true (Monitor.usage tw.m b < before);
    List.iter
      (fun i ->
        Alcotest.(check bool) "counter within filter" true
          (Prefix.covers filter (Monitor.prefix tw.m i)))
      (counters tw.m);
    Alcotest.(check bool) "still a partition" true (Monitor.is_partition tw.m);
    check_reference tw
  done

let test_cover_multi_switch () =
  (* Cover a two-switch overload set: the merges must free at least one
     entry on each switch. *)
  let tw = stepped_twin () in
  let before0 = Monitor.usage tw.m 0 and before1 = Monitor.usage tw.m 1 in
  Alcotest.(check bool) "several counters on both" true (before0 >= 2 && before1 >= 2);
  configure_both tw ~allocations:(usage_less tw (fun _ -> 1));
  Alcotest.(check bool) "freed on 0" true (Monitor.usage tw.m 0 <= before0 - 1);
  Alcotest.(check bool) "freed on 1" true (Monitor.usage tw.m 1 <= before1 - 1);
  Alcotest.(check bool) "still a partition" true (Monitor.is_partition tw.m);
  check_reference tw

(* Few distinct scores, so equal cost-per-switch ratios (and with them the
   greedy's tie-break) come up often. *)
let score_levels = [| 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 |]

(* Costs one ulp apart that divide to the same ratio: the successor of 1.5
   and its successor are distinct costs with one ratio at gains 3 and 6,
   so the first slot of least ratio need not be the first of least cost. *)
let rounding_tie_levels = [| 0.0; 1.5; Float.succ 1.5; Float.succ (Float.succ 1.5) |]

let randomize_scores rng m =
  List.iter (fun i -> Monitor.set_score m i (Rng.pick rng score_levels)) (counters m)

(* A random prefix inside the filter: a monitored counter, one of its
   ancestors, or an arbitrary prefix. *)
let random_prefix rng m ~filter =
  let slots = Array.of_list (counters m) in
  let c = Monitor.prefix m (Rng.pick rng slots) in
  match Rng.int rng 3 with
  | 0 -> c
  | 1 ->
    let lo = Prefix.length filter and hi = Prefix.length c in
    Prefix.ancestor_at c (lo + Rng.int rng (hi - lo + 1))
  | _ ->
    let free = 32 - Prefix.length filter in
    Prefix.make
      ~bits:(Prefix.bits filter lor Rng.int rng (1 lsl free))
      ~length:(Prefix.length filter + Rng.int rng (free + 1))

let oracle_filter = Prefix.of_string "10.1.2.0/24"

(* A monitor over k sub-filters of [oracle_filter], among k + 2 switches. *)
let oracle_monitor ~k ~seed =
  let topology =
    Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches:(k + 2)
      ~switches_per_task:k
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter:oracle_filter ~leaf_length:32
      ~threshold:4.0 ()
  in
  with_divide_merge (Monitor.create ~storage:(fresh_storage ()) ~spec ~topology)

(* Divide-and-merge under random scores and random per-switch allocations
   (zero leaves a switch inactive), then fresh random scores. *)
let reshape rng m dm =
  randomize_scores rng m;
  let topology = Monitor.topology m in
  let allocations = Array.make (Topology.switches_per_task topology) 0 in
  Switch_mask.iter topology (fun _ b -> allocations.(b) <- Rng.int rng 10) (Monitor.switches m);
  Divide_merge.configure dm m ~allocations;
  randomize_scores rng m

(* Two candidates of one T mask whose costs differ yet divide to the same
   ratio: the root, first in slot order, and its left child, an ulp
   cheaper.  Eight /27 sub-filters of a /24; the first three hold two /28
   counters each, the first of them scored [x], and one counter on the
   right half is scored an ulp's worth, so every candidate's cost per
   sub-filter rounds to [x] and the greedy must take the root.  One entry
   a switch then merges at the root and divides it back to the eight /27s,
   each an eighth of the root's score. *)
let test_cover_rounding_tie () =
  let filter = oracle_filter in
  let topology =
    Topology.create (Rng.create 3) ~filter ~num_switches:8 ~switches_per_task:8
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:28 ~threshold:4.0 ()
  in
  let tw = twin ~spec ~topology in
  let first = Prefix.first_address filter in
  let low b = Prefix.first_address (Topology.subfilter_of_bit topology b) < first + 96 in
  (* Two entries where the first three sub-filters' switches see them,
     one elsewhere: those three drill to /28, the rest stop at /27. *)
  set_score_both tw 0 1.0;
  configure_both tw ~allocations:(Array.init 8 (fun b -> if low b then 2 else 1));
  let x = 0.5 +. ldexp 3.0 (-53) in
  List.iter
    (fun i ->
      let p = Monitor.prefix tw.m i in
      let offset = Prefix.first_address p - first in
      set_score_both tw i
        (if Prefix.length p = 28 && offset land 16 = 0 then x
         else if offset = 128 then ldexp 1.0 (-52)
         else 0.0))
    (counters tw.m);
  Alcotest.(check int) "counters" 11 (Monitor.num_counters tw.m);
  check_reference tw;
  configure_both tw ~allocations:(Array.make 8 1);
  check_reference tw;
  Alcotest.(check int) "eight /27s" 8 (Monitor.num_counters tw.m);
  let share = Monitor.score tw.m 0 in
  List.iter
    (fun i ->
      Alcotest.(check bool) "an eighth of the root's score each" true
        (Float.equal (Monitor.score tw.m i) share))
    (counters tw.m)

(* The work cover() does on a seeded run of divide-and-merge, exactly:
   the candidate slots its solves and repairs read. *)
let test_cover_scans_pinned () =
  let m, dm = oracle_monitor ~k:8 ~seed:7 in
  let rng = Rng.create 7 in
  for _ = 1 to 40 do
    reshape rng m dm
  done;
  Alcotest.(check int) "candidate slots read" 34064 (Divide_merge.cover_scans dm)

(* Minor words a warmed configure allocates: none.  A k = 8 monitor over a
   /20 is reshaped under integer scores 0-49 and allocations 5-44 until
   its arrays reach their high-water marks, then 200 more configures are
   measured one by one, net of an empty measured region. *)
let test_warm_configure_allocates_nothing () =
  let filter = Prefix.of_string "10.0.0.0/20" in
  let topology = Topology.create (Rng.create 7) ~filter ~num_switches:10 ~switches_per_task:8 in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:4.0 ()
  in
  let m, dm = with_divide_merge (Monitor.create ~storage:(fresh_storage ()) ~spec ~topology) in
  let rng = Rng.create 7 in
  let allocations = Array.make 8 0 in
  let reset () =
    List.iter (fun i -> Monitor.set_score m i (float_of_int (Rng.int rng 50))) (counters m);
    Switch_mask.iter topology
      (fun _ b -> allocations.(b) <- 5 + Rng.int rng 40)
      (Monitor.switches m)
  in
  let configure () = Divide_merge.configure dm m ~allocations in
  let minor_words f =
    let before = Gc_stats.read Gc_stats.real in
    f ();
    let after = Gc_stats.read Gc_stats.real in
    (Gc_stats.sub after before).Gc_stats.minor_words
  in
  for _ = 1 to 200 do
    reset ();
    configure ()
  done;
  let empty = minor_words ignore in
  let words = ref 0.0 in
  for _ = 1 to 200 do
    reset ();
    words := !words +. (minor_words configure -. empty)
  done;
  Alcotest.(check (float 0.0)) "minor words over 200 configures" 0.0 !words

(* The rules of a switch are, in prefix order, the counters whose S set
   holds it, while the switch is active. *)
let prop_rules_for_matches_s_sets =
  QCheck.Test.make ~name:"rules_for = counters whose S set holds the switch" ~count:150
    QCheck.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (k_index, seed) ->
      let k = [| 2; 4; 8 |].(k_index) in
      let rng = Rng.create seed in
      let m, dm = oracle_monitor ~k ~seed in
      let topology = Monitor.topology m in
      List.for_all
        (fun _ ->
          reshape rng m dm;
          List.for_all
            (fun sw ->
              let expected =
                if mask_mem topology sw (Monitor.active m) then
                  List.filter_map
                    (fun i ->
                      let p = Monitor.prefix m i in
                      let seen = Reference_switch_set.switch_set topology p in
                      if Switch_id.Set.mem sw seen then Some p else None)
                    (counters m)
                else []
              in
              List.equal Prefix.equal (Fixtures.rules_for m sw) expected)
            (List.init (k + 2) Fun.id))
        (List.init 6 Fun.id))

(* ---- The sorted counter array against list models ---- *)

(* Readings for every switch of the task: a random subset of its rules
   (some read twice), and now and then a stale prefix it no longer
   monitors. *)
let random_readings rng m ~filter =
  Switch_mask.fold (Monitor.topology m)
    (fun sw _ acc ->
      let rules = List.filter (fun _ -> Rng.int rng 4 > 0) (Fixtures.rules_for m sw) in
      let again = List.filter (fun _ -> coin rng) rules in
      let rules = if coin rng then rules @ again else rules in
      let rules = if Rng.int rng 3 = 0 then random_prefix rng m ~filter :: rules else rules in
      (sw, List.map (fun p -> (p, float_of_int (Rng.int rng 100))) rules) :: acc)
    (Monitor.switches m) []

(* What ingest must leave on the counter of [p]: its readings in order, a
   later reading of the same switch replacing an earlier one. *)
let model_volumes readings p =
  List.fold_left
    (fun acc (sw, pairs) ->
      List.fold_left
        (fun acc (q, v) -> if Prefix.equal q p then Switch_id.Map.add sw v acc else acc)
        acc pairs)
    Switch_id.Map.empty readings

let map_of_volumes vols =
  List.fold_left (fun acc (sw, v) -> Switch_id.Map.add sw v acc) Switch_id.Map.empty vols

let prop_counter_array_model =
  QCheck.Test.make ~name:"counter array agrees with list models under ingest and configure"
    ~count:100
    QCheck.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (k_index, seed) ->
      let k = [| 2; 4; 8 |].(k_index) in
      let rng = Rng.create seed in
      let filter = oracle_filter in
      let m, dm = oracle_monitor ~k ~seed in
      let topology = Monitor.topology m in
      let check what ok =
        if not ok then QCheck.Test.fail_reportf "%s (k=%d, seed=%d)" what k seed
      in
      for _ = 1 to 8 do
        let readings = random_readings rng m ~filter in
        Fixtures.ingest_readings m readings;
        check "ingest"
          (List.for_all
             (fun i ->
               let vols = map_of_volumes (Monitor.volumes m i) in
               Switch_id.Map.equal Float.equal vols (model_volumes readings (Monitor.prefix m i))
               && (not (Monitor.fresh m i))
               && Float.equal (Monitor.total m i)
                    (Switch_id.Map.fold (fun _ v acc -> acc +. v) vols 0.0))
             (counters m));
        reshape rng m dm;
        let cs = counters m in
        let ps = List.map (Monitor.prefix m) cs in
        let rec increasing = function
          | a :: (b :: _ as rest) ->
            Prefix.last_address a < Prefix.first_address b && increasing rest
          | [ _ ] | [] -> true
        in
        check "strictly increasing partition"
          (increasing ps
          && List.for_all (Prefix.covers filter) ps
          && List.fold_left (fun acc p -> acc + Prefix.size p) 0 ps = Prefix.size filter
          && Monitor.num_counters m = List.length cs);
        List.iter
          (fun (sub, sw) ->
            let active = mask_mem topology sw (Monitor.active m) in
            let seen =
              List.filter
                (fun p -> Switch_id.Set.mem sw (Reference_switch_set.switch_set topology p))
                ps
            in
            check "usage = recount"
              (Monitor.usage m (Topology.bit_of_switch topology sw)
              = if active then List.length seen else 0);
            let intersecting =
              List.filter (fun p -> Prefix.covers sub p || Prefix.covers p sub) ps
            in
            check "rules_for = filter by intersection"
              (List.equal Prefix.equal (Fixtures.rules_for m sw)
                 (if active then intersecting else [])))
          (Topology.subfilters topology);
        for _ = 1 to 8 do
          let p = random_prefix rng m ~filter in
          let expected = List.find_opt (fun i -> Prefix.equal (Monitor.prefix m i) p) cs in
          check "find = list lookup" (Monitor.find m p = expected)
        done;
      done;
      true)

(* ---- Differential: the column table against the boxed reference ---- *)

module Ewma = Reference_ewma

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_volumes a b =
  List.equal (fun (sw, v) (sw', v') -> sw = sw' && same_float v v') a b

(* Readings for every switch of the task: a random subset of its rules
   with fractional volumes (so the order of every float sum shows), some
   read twice, now and then a stale prefix, now and then out of TCAM
   order. *)
let random_fractional_readings rng m ~filter =
  Switch_mask.fold (Monitor.topology m)
    (fun sw _ acc ->
      let rules = List.filter (fun _ -> Rng.int rng 4 > 0) (Fixtures.rules_for m sw) in
      let rules = if coin rng then rules @ List.filter (fun _ -> coin rng) rules else rules in
      let rules = if Rng.int rng 3 = 0 then random_prefix rng m ~filter :: rules else rules in
      let rules =
        if Rng.int rng 4 = 0 then begin
          let a = Array.of_list rules in
          Rng.shuffle rng a;
          Array.to_list a
        end
        else rules
      in
      let volume () = if Rng.int rng 8 = 0 then 0.0 else Rng.float rng 50.0 in
      (sw, List.map (fun p -> (p, volume ())) rules) :: acc)
    (Monitor.switches m) []

(* A rounding tie, drawn: [drilled] sub-filters of the filter's left half,
   a count that is not a power of two, each split in two with its first
   half scored [x = 0.5 + ulps * 2^-53], and the counter of sub-filter
   [tiny_bit] in the right half scored the ulp of their sum.  The root and
   the left half then free one T mask, the drilled bits, at costs an ulp
   apart, and for most [x] the two divide by the gain to one ratio: the
   root, first in slot order, must win over its cheaper child. *)
type tie = { tie_k : int; drilled : int list; ulps : int; tiny_bit : int }

let rounding_tie =
  let gen =
    QCheck.Gen.(
      oneofl [ 8; 16 ] >>= fun tie_k ->
      let half = tie_k / 2 in
      oneofl (List.filter (fun c -> c <= half) [ 3; 5; 6; 7 ]) >>= fun count ->
      shuffle_l (List.init half Fun.id) >>= fun bits ->
      int_range 1 15 >>= fun ulps ->
      int_range half (tie_k - 1) >|= fun tiny_bit ->
      { tie_k; drilled = List.filteri (fun i _ -> i < count) bits; ulps; tiny_bit })
  in
  let print t =
    Printf.sprintf "{k=%d; drilled=[%s]; ulps=%d; tiny_bit=%d}" t.tie_k
      (String.concat ";" (List.map string_of_int t.drilled))
      t.ulps t.tiny_bit
  in
  QCheck.make ~print gen

(* Bring a fresh twin to the tie and configure it at one entry a switch:
   the drilled sub-filters' switches are the ones overloaded. *)
let set_up_tie tw tie =
  let topology = Monitor.topology tw.m in
  let sub b = Topology.subfilter_of_bit topology b in
  set_score_both tw 0 1.0;
  configure_both tw
    ~allocations:(Array.init tie.tie_k (fun b -> if List.mem b tie.drilled then 2 else 1));
  let x = 0.5 +. ldexp (float_of_int tie.ulps) (-53) in
  let sum = List.fold_left (fun acc _ -> acc +. x) 0.0 tie.drilled in
  let first_half b = Prefix.make ~bits:(Prefix.bits (sub b)) ~length:(Prefix.length (sub b) + 1) in
  List.iter
    (fun i ->
      let p = Monitor.prefix tw.m i in
      set_score_both tw i
        (if List.exists (fun b -> Prefix.equal p (first_half b)) tie.drilled then x
         else if Prefix.equal p (sub tie.tiny_bit) then Float.succ sum -. sum
         else 0.0))
    (counters tw.m);
  configure_both tw ~allocations:(Array.make tie.tie_k 1)

(* Half the cases start from a rounding tie. *)
let prop_columns_match_boxed_reference =
  QCheck.Test.make ~name:"column table = boxed reference monitor, bit for bit" ~count:120
    QCheck.(
      pair
        (triple (int_bound 2) (int_bound 2) (int_bound 1_000_000))
        (option ~ratio:0.5 rounding_tie))
    (fun ((k_index, kind_index, seed), tie) ->
      let k = match tie with Some t -> t.tie_k | None -> [| 2; 4; 8 |].(k_index) in
      let kind =
        [| Task_spec.Heavy_hitter; Task_spec.Hierarchical_heavy_hitter; Task_spec.Change_detection |]
          .(kind_index)
      in
      let num_switches = k + 2 in
      let topology =
        Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches ~switches_per_task:k
      in
      let spec =
        Task_spec.make ~kind ~filter:oracle_filter ~leaf_length:32 ~threshold:4.0 ()
      in
      let tw = twin ~spec ~topology in
      let { m; r; _ } = tw in
      let levels = if seed land 1 = 0 then score_levels else rounding_tie_levels in
      let rng = Rng.create seed in
      let fail what step = QCheck.Test.fail_reportf "%s after step %d (k=%d, seed=%d)" what step k seed in
      Option.iter (set_up_tie tw) tie;
      let check step =
        let cs = Reference.fold List.cons r [] in
        if m.gap <> Monitor.num_counters m then fail "gap left open" step;
        if Monitor.num_counters m <> List.length cs then fail "counter count" step;
        List.iteri
          (fun i (c : Reference.Counter.t) ->
            if not (Prefix.equal (Monitor.prefix m i) c.prefix) then fail "prefix" step;
            if not (same_float (Monitor.total m i) c.total) then fail "total" step;
            if not (same_float (Monitor.score m i) c.score) then fail "score" step;
            if not (same_volumes (Monitor.volumes m i) (Switch_id.Map.bindings c.volumes)) then
              fail "volumes" step;
            if Monitor.fresh m i <> c.fresh then fail "fresh" step;
            if not (Option.equal same_float (Monitor.mean m i) (Ewma.value c.mean)) then
              fail "mean" step)
          cs;
        for sw = 0 to num_switches - 1 do
          if not (List.equal Prefix.equal (Fixtures.rules_for m sw) (Reference.rules_for r sw))
          then fail "rules_for" step
        done;
        if monitor_text m <> Reference.emit r then fail "emit" step
      in
      check 0;
      for step = 1 to 30 do
        (match Rng.int rng 5 with
        | 0 ->
          let readings = random_fractional_readings rng m ~filter:oracle_filter in
          Fixtures.ingest_readings m readings;
          Reference.ingest r readings
        | 1 ->
          Score.apply m;
          Reference.rescore_all r
        | 2 ->
          Monitor.update_means m;
          Reference.iter Reference.Counter.update_mean r
        | 3 ->
          List.iteri
            (fun i (c : Reference.Counter.t) ->
              let s = Rng.pick rng levels in
              Monitor.set_score m i s;
              c.score <- s)
            (Reference.fold List.cons r [])
        | _ ->
          let allocations = Array.make k 0 in
          Switch_mask.iter topology
            (fun _ b -> allocations.(b) <- Rng.int rng 12)
            (Monitor.switches m);
          configure_both tw ~allocations);
        check step
      done;
      (* A checkpoint round trip re-emits the same text. *)
      let text = monitor_text m in
      let restored =
        Codec.decode (Monitor.codec ~spec ~topology ~storage:(fresh_storage ())) text
      in
      if monitor_text restored <> text then fail "parse/emit round trip" 30;
      true)

(* The run must merge covers of two picks or more, or the greedy's drops
   between picks go unchecked: the reference counts them. *)
let test_columns_match_boxed_reference =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_columns_match_boxed_reference in
  ( name,
    speed,
    fun () ->
      Reference.multi_pick_merges := 0;
      run ();
      if !Reference.multi_pick_merges = 0 then Alcotest.fail "no merged cover took two picks" )

(* ---- The gap: merges and divides outside a configure ---- *)

(* A CD twin over [oracle_filter]'s four sub-filters on a fresh storage
   (16 slots), its root read once and its mean seeded, so that the halves
   and sums of scores, means and volumes show in the checkpoint text. *)
let gap_twin () =
  let topology =
    Topology.create (Rng.create 5) ~filter:oracle_filter ~num_switches:6 ~switches_per_task:4
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Change_detection ~filter:oracle_filter ~leaf_length:32
      ~threshold:4.0 ()
  in
  let tw = twin ~spec ~topology in
  let readings = random_fractional_readings (Rng.create 9) tw.m ~filter:oracle_filter in
  Fixtures.ingest_readings tw.m readings;
  Reference.ingest tw.r readings;
  Monitor.update_means tw.m;
  Reference.iter Reference.Counter.update_mean tw.r;
  set_score_both tw 0 0.7;
  tw

let reference_counters tw = Reference.fold List.cons tw.r []

(* Divide the counter on [p] in both; the slot the monitor returns holds
   the left child, the next the right. *)
let divide_both tw p =
  let i = Monitor.slot_of_key tw.m (Prefix.key p) in
  if i < 0 then Alcotest.failf "no slot holds %s" (Prefix.to_string p);
  let j = Monitor.divide_slot tw.m i in
  let l, r = Option.get (Prefix.children p) in
  Alcotest.(check int) "left child at the returned slot" (Prefix.key l) (Monitor.key tw.m j);
  Alcotest.(check int) "right child after it" (Prefix.key r) (Monitor.key tw.m (j + 1));
  Reference.divide tw.r
    (Reference_heap.create ~cmp:Reference.by_score)
    ~leaf_length:32
    (Option.get (Reference.find tw.r p))

let merge_both tw p =
  Monitor.merge tw.m ~abits:(Prefix.bits p) ~alen:(Prefix.length p);
  Reference.merge tw.r p

(* With the gap wherever the edits left it: every counter is found, in
   prefix order, with the reference's score; then, settled, the whole
   table is the reference's. *)
let check_gapped tw =
  let cs = reference_counters tw in
  Alcotest.(check int) "counters" (List.length cs) (Monitor.num_counters tw.m);
  let slots =
    List.map
      (fun (c : Reference.Counter.t) ->
        let i = Monitor.slot_of_key tw.m (Prefix.key c.prefix) in
        if i < 0 then Alcotest.failf "%s not found" (Prefix.to_string c.prefix);
        if not (same_float (Monitor.score tw.m i) c.score) then
          Alcotest.failf "score of %s" (Prefix.to_string c.prefix);
        i)
      cs
  in
  Alcotest.(check bool) "slots rise in prefix order" true (List.sort_uniq compare slots = slots);
  Monitor.settle tw.m;
  Alcotest.(check int) "settled: the gap at n" (Monitor.num_counters tw.m) tw.m.gap;
  check_reference tw

(* The table fills its 16 slots with the gap between the two halves of the
   table; the next divide grows the columns, each run copied to its end
   of the larger ones, and then moves the gap to the divided counter. *)
let test_gap_resize_in_middle () =
  let tw = gap_twin () in
  Alcotest.(check int) "a fresh storage's slots" 16 (Monitor.capacity tw.m);
  while Monitor.num_counters tw.m < 16 do
    let cs = reference_counters tw in
    let divisible (c : Reference.Counter.t) = Prefix.length c.prefix < 32 in
    let c = List.nth cs (List.length cs / 2) in
    divide_both tw (if divisible c then c else List.find divisible cs).prefix
  done;
  Alcotest.(check bool)
    (Printf.sprintf "full, the gap at %d of 16" tw.m.gap)
    true
    (Monitor.capacity tw.m = 16 && 0 < tw.m.gap && tw.m.gap < 16);
  divide_both tw (List.hd (reference_counters tw)).prefix;
  Alcotest.(check int) "grown" 32 (Monitor.capacity tw.m);
  check_gapped tw

(* A merge whose victims lie on both sides of the gap. *)
let test_gap_merge_straddles () =
  let tw = gap_twin () in
  let at s = Prefix.of_string s in
  List.iter (fun p -> divide_both tw (at p))
    [ "10.1.2.0/24"; "10.1.2.0/25"; "10.1.2.0/26"; "10.1.2.64/26"; "10.1.2.0/27" ];
  (* .0/28 .16/28 | gap | .32/27 .64/27 .96/27 .128/25: the victims of
     .0/25 are the table's first five. *)
  Alcotest.(check int) "the gap after the last divide's children" 2 tw.m.gap;
  merge_both tw (at "10.1.2.0/25");
  check_gapped tw

(* Divides at the first and the last slot, one after the other: the gap
   crosses the whole table each time. *)
let test_gap_first_and_last () =
  let tw = gap_twin () in
  let first () = (List.hd (reference_counters tw)).prefix in
  let last () = (List.hd (List.rev (reference_counters tw))).prefix in
  List.iter
    (fun pick ->
      divide_both tw (pick ());
      let cs = reference_counters tw in
      List.iter
        (fun (c : Reference.Counter.t) ->
          if Monitor.slot_of_key tw.m (Prefix.key c.prefix) < 0 then
            Alcotest.failf "%s lost" (Prefix.to_string c.prefix))
        cs)
    [ first; last; first; last; last; first ];
  check_gapped tw

(* Score.apply writes the score column in one pass; Reference_score.of_slot
   is the per-slot definition it must agree with, bit for bit, on every counter
   that is not fresh (a fresh one keeps its inherited score). *)
let prop_score_column_matches_of_slot =
  QCheck.Test.make ~name:"Score.apply = Reference_score.of_slot on every slot, bit for bit"
    ~count:100
    QCheck.(triple (int_bound 2) (int_bound 2) (int_bound 1_000_000))
    (fun (k_index, kind_index, seed) ->
      let k = [| 2; 4; 8 |].(k_index) in
      let kind =
        [| Task_spec.Heavy_hitter; Task_spec.Hierarchical_heavy_hitter; Task_spec.Change_detection |]
          .(kind_index)
      in
      let topology =
        Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches:(k + 2)
          ~switches_per_task:k
      in
      let spec =
        Task_spec.make ~kind ~filter:oracle_filter ~leaf_length:32 ~threshold:4.0 ()
      in
      let m, dm = with_divide_merge (Monitor.create ~storage:(fresh_storage ()) ~spec ~topology) in
      let rng = Rng.create seed in
      for step = 1 to 12 do
        (match Rng.int rng 3 with
        | 0 -> Fixtures.ingest_readings m (random_fractional_readings rng m ~filter:oracle_filter)
        | 1 -> Monitor.update_means m
        | _ -> reshape rng m dm);
        let expected =
          Array.init (Monitor.num_counters m) (fun i ->
              if Monitor.fresh m i then Monitor.score m i else Reference_score.of_slot m i)
        in
        Score.apply m;
        Array.iteri
          (fun i e ->
            if not (same_float (Monitor.score m i) e) then
              QCheck.Test.fail_reportf "slot %d after step %d (k=%d, seed=%d)" i step k seed)
          expected
      done;
      true)

(* ---- Differential: reports, estimates and ground truth against the list-based oracles ---- *)

module Task = Dream_tasks.Task
module Items = Dream_tasks.Items
module Ground_truth = Dream_tasks.Ground_truth

(* One epoch's network-wide traffic under the filter: flows on a few
   random leaves, several addresses each, with fractional volumes (so the
   order of every leaf sum shows), split over two switches; now and then
   nothing at all. *)
let random_epoch_data rng ~epoch ~leaf_length =
  let first = Prefix.first_address oracle_filter in
  let span = Prefix.size oracle_filter in
  let flows () =
    if Rng.int rng 6 = 0 then []
    else
      List.init (Rng.int rng 24) (fun _ ->
          let wild = 32 - leaf_length in
          let leaf = (Rng.int rng span lsr wild) lsl wild in
          let addr = first + leaf + Rng.int rng (1 lsl wild) in
          { Flow.addr; volume = Rng.float rng 40.0 })
  in
  Epoch_data.of_flows ~epoch [ (0, flows ()); (1, flows ()) ]

let same_accuracy (a : Accuracy.t) (b : Accuracy.t) =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_items (items : Items.t) (report : Report.t) =
  List.length report.Report.items = items.Items.n
  && List.for_all2
       (fun (item : Report.item) i ->
         Prefix.key item.Report.prefix = items.Items.keys.(i)
         && same_float item.Report.magnitude items.Items.mags.(i))
       report.Report.items
       (List.init items.Items.n Fun.id)

let prop_estimates_match_oracles =
  QCheck.Test.make ~name:"item buffers and key-column truth = list-based oracles, bit for bit"
    ~count:90
    QCheck.(triple (int_bound 2) (int_bound 2) (int_bound 1_000_000))
    (fun (k_index, kind_index, seed) ->
      let k = [| 2; 4; 8 |].(k_index) in
      let kind =
        [| Task_spec.Heavy_hitter; Task_spec.Hierarchical_heavy_hitter; Task_spec.Change_detection |]
          .(kind_index)
      in
      let rng = Rng.create seed in
      let leaf_length = Rng.pick rng [| 28; 30; 32 |] in
      let threshold = Rng.pick rng [| 4.0; 20.0; 60.0 |] in
      let topology =
        Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches:(k + 2)
          ~switches_per_task:k
      in
      let spec =
        Task_spec.make ~kind ~filter:oracle_filter ~leaf_length ~threshold ()
      in
      (* Twin tasks fed the same readings and allocations: [live] runs the
         item buffers, [oracle]'s monitor the list-based estimators. *)
      let live = Task.create ~id:0 ~spec ~topology ~storage:(fresh_storage ()) () in
      let oracle = Task.create ~id:0 ~spec ~topology ~storage:(fresh_storage ()) () in
      let truth = Ground_truth.create ~storage:(fresh_storage ()) spec
      and reference_truth = Reference_ground_truth.create spec in
      let fail what epoch =
        QCheck.Test.fail_reportf "%s at epoch %d (k=%d, %s, seed=%d)" what epoch k
          (Task_spec.kind_to_string kind) seed
      in
      for epoch = 0 to 7 do
        let readings = random_fractional_readings rng (Task.monitor live) ~filter:oracle_filter in
        Fixtures.ingest_readings (Task.monitor live) readings;
        Fixtures.ingest_readings (Task.monitor oracle) readings;
        let accuracy = Task.estimate live ~epoch in
        let report, expected =
          Reference_estimate.report_and_estimate (Task.monitor oracle)
            ~allocations:(Task.allocations oracle) ~epoch
        in
        if not (same_items (Task.items live) report) then fail "report items" epoch;
        if not (same_accuracy accuracy expected) then fail "accuracy" epoch;
        let data = random_epoch_data rng ~epoch ~leaf_length in
        let real = (Ground_truth.evaluate truth data (Task.items live)).real in
        let expected_real =
          (Reference_ground_truth.evaluate reference_truth data report)
            .Reference_ground_truth.real_accuracy
        in
        if not (same_float real expected_real) then fail "real accuracy" epoch;
        let truth_codec = Ground_truth.codec ~spec ~storage:(fresh_storage ()) in
        let text = Codec.encode truth_codec truth in
        if text <> Reference_ground_truth.emit reference_truth then fail "cd means" epoch;
        let restored = Codec.decode truth_codec text in
        if Codec.encode truth_codec restored <> text then fail "cd means round trip" epoch;
        let allocations = Array.make k 0 in
        Switch_mask.iter topology
          (fun _ b -> allocations.(b) <- Rng.int rng 12)
          (Task.switches live);
        Task.configure live ~workspace:Fixtures.workspace ~allocations:(Array.copy allocations);
        Task.configure oracle ~workspace:Fixtures.workspace ~allocations
      done;
      true)

(* Raw figures the estimators never produce, beside ones they do: NaN,
   both zeros, values outside [0, 1] and the infinities. *)
let raw_levels =
  [| Float.nan; 0.0; -0.0; 1.0; 0.5; 0.25; 1.5; -0.5; 7.0; Float.infinity; Float.neg_infinity |]

let contains text part =
  let n = String.length part in
  let rec from i = i + n <= String.length text && (String.sub text i n = part || from (i + 1)) in
  from 0

let prop_smoothing_matches_ewma_oracle =
  QCheck.Test.make ~name:"smoothed accuracy column = Ewma oracle, bit for bit" ~count:200
    QCheck.(triple (int_bound 3) bool (int_bound 1_000_000))
    (fun (k_index, global_only, seed) ->
      let k = [| 1; 2; 4; 8 |].(k_index) and num_switches = [| 1; 2; 4; 8 |].(k_index) + 2 in
      let topology =
        Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches ~switches_per_task:k
      in
      let spec =
        Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter:oracle_filter ~leaf_length:32
          ~threshold:4.0 ()
      in
      let mode = if global_only then Task.Global_only else Task.Overall in
      let task =
        Task.create ~id:0 ~spec ~topology ~accuracy_mode:mode ~storage:(fresh_storage ()) ()
      in
      let oracle = Reference_smoothing.create ~topology ~mode in
      let codec = Task.codec ~storage:(fresh_storage ()) in
      let rng = Rng.create seed in
      let draw () = if Rng.int rng 3 = 0 then Rng.float rng 1.0 else Rng.pick rng raw_levels in
      let fail what step =
        QCheck.Test.fail_reportf "%s after step %d (k=%d, seed=%d)" what step k seed
      in
      for step = 0 to 24 do
        (match Rng.int rng 3 with
        | 0 ->
          let factor = draw () and bit = Rng.int rng k in
          Task.decay_accuracy task ~bit ~factor;
          Reference_smoothing.decay oracle ~bit ~factor
        | _ ->
          let raw = Accuracy.create k in
          Array.iteri (fun i _ -> raw.(i) <- draw ()) raw;
          Task.smooth task raw;
          Reference_smoothing.smooth oracle ~switches:(Task.switches task) raw);
        let overall = Array.make num_switches 0.0 and used = Array.make num_switches 0 in
        Task.allocator_view task ~overall ~used ~pos:0 ~num_switches;
        let expected = Reference_smoothing.overall oracle ~num_switches in
        if not (Array.for_all2 same_float overall expected) then fail "allocator_view" step;
        if not (same_float (Task.smoothed_global task) (Reference_smoothing.smoothed_global oracle))
        then fail "smoothed_global" step;
        let text = Codec.encode codec task in
        if not (contains text (Reference_smoothing.text oracle)) then fail "checkpoint text" step;
        if Codec.encode codec (Codec.decode codec text) <> text then fail "round trip" step
      done;
      true)

(* ---- Recycled storage: nothing a task reads was left by another ---- *)

module Storage = Dream_tasks.Storage

(* One epoch of traffic on random leaves under the filter, each flow at the
   switch its address maps to. *)
let routed_epoch rng topology ~epoch ~leaf_length =
  let first = Prefix.first_address oracle_filter and span = Prefix.size oracle_filter in
  let wild = 32 - leaf_length in
  let flows =
    List.init (Rng.int rng 40) (fun _ ->
        let leaf = (Rng.int rng span lsr wild) lsl wild in
        { Flow.addr = first + leaf + Rng.int rng (1 lsl wild); volume = Rng.float rng 40.0 })
  in
  Epoch_data.of_flows ~epoch
    (List.filter_map
       (fun (f : Flow.t) ->
         Option.map (fun sw -> (sw, [ f ])) (Topology.switch_of_address topology f.Flow.addr))
       flows)

(* Garbage over everything a retired task left: random bytes in the Bytes
   columns, NaN and 1e300 in every float column and buffer, random item
   counts. *)
let scribble rng (s : Storage.t) =
  let bytes b = Bytes.iteri (fun i _ -> Bytes.set b i (Char.chr (Rng.int rng 256))) b in
  let floats a = Array.iteri (fun i _ -> a.(i) <- (if coin rng then Float.nan else 1e300)) a in
  let items (b : Items.t) =
    floats b.Items.mags;
    floats b.Items.vals;
    Array.iteri (fun i _ -> b.Items.keys.(i) <- Rng.int rng 1_000_000) b.Items.keys;
    b.Items.n <- Rng.int rng (Array.length b.Items.keys + 1)
  in
  List.iter bytes [ s.keys; s.masks; s.flags; s.stamps ];
  List.iter floats [ s.totals; s.scores; s.means; s.vols; s.read_vols ];
  List.iter items [ s.report; s.detections; s.leaves; s.truth; s.truth_means; s.truth_next ]

let kinds =
  [| Task_spec.Heavy_hitter; Task_spec.Hierarchical_heavy_hitter; Task_spec.Change_detection |]

(* Random allocations of up to 23 entries on every sub-filter. *)
let random_allocations rng topology =
  let a = Array.make (Topology.switches_per_task topology) 0 in
  Switch_mask.iter topology (fun _ b -> a.(b) <- Rng.int rng 24) (Switch_mask.full topology);
  a

(* Garbage over a workspace: configures of a k = 8 monitor under random
   allocations, first on random scores, then on NaN and 1e300, so that its
   node table, class table, heap and solve stamps hold another monitor's
   entries and its float columns junk. *)
let soil rng workspace =
  let topology =
    Topology.create
      (Rng.create (Rng.int rng 1_000_000))
      ~filter:oracle_filter ~num_switches:10 ~switches_per_task:8
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter:oracle_filter ~leaf_length:32
      ~threshold:4.0 ()
  in
  let m = Monitor.create ~storage:(fresh_storage ()) ~spec ~topology in
  for round = 0 to 5 do
    List.iter
      (fun i ->
        Monitor.set_score m i
          (if round < 3 then Rng.float rng 50.0 else if coin rng then Float.nan else 1e300))
      (counters m);
    Divide_merge.configure workspace m ~allocations:(random_allocations rng topology)
  done

(* Per switch, the monitor's rules: what rule sync installs and removes
   follows from these. *)
let rule_runs task =
  let m = Task.monitor task in
  Switch_mask.fold (Monitor.topology m)
    (fun sw _ acc -> (sw, Fixtures.rules_for m sw) :: acc)
    (Monitor.switches m) []

let prop_recycled_storage_matches_fresh =
  QCheck.Test.make
    ~name:"a task on recycled garbage storage = a task on fresh storage, bit for bit"
    ~count:200
    QCheck.(quad (int_bound 2) (int_bound 2) (int_bound 2) (int_bound 1_000_000))
    (fun (k_index, donor_kind, kind_index, seed) ->
      let k = [| 2; 4; 8 |].(k_index) and kind = kinds.(kind_index) in
      let rng = Rng.create seed in
      let leaf_length = Rng.pick rng [| 28; 30; 32 |] in
      let topology =
        Topology.create (Rng.create seed) ~filter:oracle_filter ~num_switches:(k + 2)
          ~switches_per_task:k
      in
      let spec_of kind =
        Task_spec.make ~kind ~filter:oracle_filter ~leaf_length ~threshold:4.0 ()
      in
      let allocations () = random_allocations rng topology in
      (* A donor of another (or the same) kind grows the storage, retires,
         and leaves garbage; so does the workspace it configured on. *)
      let storage = Storage.create () and workspace = Divide_merge.create () in
      let donor = Task.create ~id:1 ~spec:(spec_of kinds.(donor_kind)) ~topology ~storage () in
      let donor_truth = Ground_truth.create ~storage (spec_of kinds.(donor_kind)) in
      for epoch = 0 to Rng.int rng 12 do
        let data = routed_epoch rng topology ~epoch ~leaf_length in
        Task.read_traffic donor data;
        ignore (Task.estimate donor ~epoch);
        Task.configure donor ~workspace ~allocations:(allocations ());
        ignore (Ground_truth.evaluate donor_truth data (Task.items donor))
      done;
      let storage = Task.release donor in
      scribble rng storage;
      soil rng workspace;
      let spec = spec_of kind in
      let recycled = Task.create ~id:0 ~spec ~topology ~storage () in
      let recycled_truth = Ground_truth.create ~storage spec in
      let fresh = Task.create ~id:0 ~spec ~topology ~storage:(fresh_storage ()) () in
      let own = Divide_merge.create () in
      let fresh_truth = Ground_truth.create ~storage:(fresh_storage ()) spec in
      let fail what epoch =
        QCheck.Test.fail_reportf "%s at epoch %d (k=%d, donor %s, %s, seed=%d)" what epoch k
          (Task_spec.kind_to_string kinds.(donor_kind))
          (Task_spec.kind_to_string kind) seed
      in
      let same_buffer (a : Items.t) (b : Items.t) =
        a.Items.n = b.Items.n
        && List.for_all
             (fun i ->
               a.Items.keys.(i) = b.Items.keys.(i)
               && same_float a.Items.mags.(i) b.Items.mags.(i)
               && ((not a.Items.values) || same_float a.Items.vals.(i) b.Items.vals.(i)))
             (List.init a.Items.n Fun.id)
      in
      for epoch = 0 to 9 do
        let data = routed_epoch rng topology ~epoch ~leaf_length in
        Task.read_traffic recycled data;
        Task.read_traffic fresh data;
        let a = Task.estimate recycled ~epoch and b = Task.estimate fresh ~epoch in
        if not (same_accuracy a b) then fail "estimated accuracy" epoch;
        Task.smooth recycled a;
        Task.smooth fresh b;
        if not (same_buffer (Task.items recycled) (Task.items fresh)) then
          fail "report items" epoch;
        let real_a = (Ground_truth.evaluate recycled_truth data (Task.items recycled)).real in
        let real_b = (Ground_truth.evaluate fresh_truth data (Task.items fresh)).real in
        if not (same_float real_a real_b) then fail "real accuracy" epoch;
        let truth_text = Codec.encode (Ground_truth.codec ~spec ~storage:(fresh_storage ())) in
        if truth_text recycled_truth <> truth_text fresh_truth then fail "cd means" epoch;
        let allocations = allocations () in
        Task.configure recycled ~workspace ~allocations:(Array.copy allocations);
        Task.configure fresh ~workspace:own ~allocations;
        if rule_runs recycled <> rule_runs fresh then fail "rules" epoch;
        let task_text = Codec.encode (Task.codec ~storage:(fresh_storage ())) in
        if task_text recycled <> task_text fresh then fail "task checkpoint" epoch
      done;
      true)

(* Two to five tasks of mixed kind and sub-filter count configured
   round-robin on one soiled workspace, each against a twin that
   configures on a workspace of its own: sharing must change nothing, bit
   for bit, in any epoch. *)
let prop_shared_workspace_matches_own =
  QCheck.Test.make ~name:"tasks sharing one soiled workspace = tasks on their own, bit for bit"
    ~count:60
    QCheck.(pair (int_range 2 5) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let shared = Divide_merge.create () in
      soil rng shared;
      let twins id =
        let k = Rng.pick rng [| 1; 2; 4; 8 |] and kind = Rng.pick rng kinds in
        let leaf_length = Rng.pick rng [| 28; 30; 32 |] in
        let threshold = Rng.pick rng [| 4.0; 20.0; 60.0 |] in
        let topology =
          Topology.create (Rng.create (seed + id)) ~filter:oracle_filter ~num_switches:(k + 2)
            ~switches_per_task:k
        in
        let spec = Task_spec.make ~kind ~filter:oracle_filter ~leaf_length ~threshold () in
        let task () = Task.create ~id ~spec ~topology ~storage:(fresh_storage ()) () in
        (task (), task (), Divide_merge.create (), leaf_length)
      in
      let tasks = List.init n twins in
      let counter_text = Codec.encode (Task.codec ~storage:(fresh_storage ())) in
      for epoch = 0 to 9 do
        List.iter
          (fun (sharing, alone, own, leaf_length) ->
            let topology = Task.topology sharing in
            let fail what =
              QCheck.Test.fail_reportf "%s of task %d at epoch %d (k=%d, %s, seed=%d)" what
                (Task.id sharing) epoch
                (Topology.switches_per_task topology)
                (Task_spec.kind_to_string (Task.spec sharing).Task_spec.kind)
                seed
            in
            let data = routed_epoch rng topology ~epoch ~leaf_length in
            Task.read_traffic sharing data;
            Task.read_traffic alone data;
            ignore (Task.estimate sharing ~epoch);
            ignore (Task.estimate alone ~epoch);
            let allocations = random_allocations rng topology in
            Task.configure sharing ~workspace:shared ~allocations:(Array.copy allocations);
            Task.configure alone ~workspace:own ~allocations;
            if counter_text sharing <> counter_text alone then fail "counters";
            if rule_runs sharing <> rule_runs alone then fail "rules")
          tasks
      done;
      true)

(* ---- Partition invariant under random allocation schedules ---- *)

let prop_partition_under_random_allocations =
  QCheck.Test.make ~name:"partition + budgets hold under random allocation schedules" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 1 12))
    (fun allocation_schedule ->
      let m, dm = mk_monitor () in
      let rng = Rng.create 0x5eed in
      List.for_all
        (fun n ->
          let allocations = allocations_of m n in
          let epoch = Rng.int rng 1000 in
          step m dm ~allocations ~epoch;
          Monitor.is_partition m
          && not
               (Switch_mask.fold (Monitor.topology m)
                  (fun _ b over -> over || Monitor.usage m b > n)
                  (Monitor.switches m) false))
        allocation_schedule)

(* ---- Score ---- *)

(* The score [Score.apply] writes into slot 0's score column. *)
let scored m =
  Score.apply m;
  m.Monitor.scores.(0)

let test_score_hh () =
  let m = single_counter (sub 0b01 30) in
  read_volume m 30.0;
  (* volume 30 over (2 wildcards + 1). *)
  Alcotest.(check (float 1e-9)) "volume / (wildcards+1)" 10.0 (scored m);
  read_volume m 9.0;
  Alcotest.(check (float 1e-9)) "sub-threshold scores zero" 0.0 (scored m)

let test_score_hhh () =
  let m = single_counter ~kind:Task_spec.Hierarchical_heavy_hitter (sub 0b01 30) in
  read_volume m 30.0;
  Alcotest.(check (float 1e-9)) "raw volume" 30.0 (scored m)

let test_score_cd () =
  let m = single_counter ~kind:Task_spec.Change_detection (sub 0b01 30) in
  read_volume m 30.0;
  Monitor.update_means m;
  read_volume m 0.0;
  (* deviation 30 over 3; CD scores sub-threshold deviations too (floored
     only below threshold/8). *)
  Alcotest.(check (float 1e-9)) "deviation / (wildcards+1)" 10.0 (scored m);
  read_volume m 26.0;
  Alcotest.(check bool) "sub-threshold deviation still scores" true (scored m > 0.0);
  read_volume m 29.5;
  Alcotest.(check (float 1e-9)) "dead-calm scores zero" 0.0 (scored m)

(* The HHH truth walk that carries each node's address range down and
   splits it with one search lists the same true HHHs, in the same order,
   as the per-node walk making two fresh searches at every node
   (Reference_search.hhh_truth).  Filters from the whole space down to a
   /28; flows inside and outside the filter, packed on a few leaves or
   spread. *)
let prop_hhh_range_descent =
  QCheck.Test.make ~name:"HHH range descent = per-node search walk" ~count:300 QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let filter =
        Prefix.of_string
          (Rng.pick rng [| "0.0.0.0/0"; "10.0.0.0/8"; "10.1.2.0/24"; "10.1.2.16/28"; "255.255.255.0/24" |])
      in
      let leaf_length =
        Prefix.length filter + 1 + Rng.int rng (Prefix.address_bits - Prefix.length filter)
      in
      let spec =
        Task_spec.make ~kind:Task_spec.Hierarchical_heavy_hitter ~filter ~leaf_length
          ~threshold:(Rng.pick rng [| 1.0; 15.0; 60.0; 400.0 |])
          ()
      in
      let first = Prefix.first_address filter and span = Prefix.size filter in
      let addr () =
        match Rng.int rng 4 with
        | 0 -> Rng.int rng (1 lsl 30) * 4
        | 1 -> first + Rng.int rng (min span 16)
        | _ -> first + Rng.int rng span
      in
      let flows = List.init (Rng.int rng 60) (fun _ -> { Flow.addr = addr (); volume = Rng.float rng 40.0 }) in
      let data = Epoch_data.of_flows ~epoch:0 [ (0, flows) ] in
      let storage = fresh_storage () in
      ignore (Ground_truth.evaluate (Ground_truth.create ~storage spec) data (Items.create ()));
      let got = storage.Dream_tasks.Storage.truth
      and want = Reference_search.hhh_truth spec data.Epoch_data.combined in
      got.Items.n = want.Items.n
      && Array.sub got.Items.keys 0 got.Items.n = Array.sub want.Items.keys 0 want.Items.n)

let () =
  Alcotest.run "dream.tasks"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "cd mean" `Quick test_counter_cd_mean;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "initial state" `Quick test_monitor_initial;
          Alcotest.test_case "drill finds heavy leaves" `Quick test_monitor_drill_finds_heavy_leaves;
          Alcotest.test_case "respects allocation" `Quick test_monitor_respects_allocation;
          Alcotest.test_case "shrinks on reduced allocation" `Quick
            test_monitor_shrinks_on_reduced_allocation;
          Alcotest.test_case "zero allocation uninstalls" `Quick
            test_monitor_zero_allocation_uninstalls;
          Alcotest.test_case "bottleneck detection" `Quick test_monitor_bottlenecked;
          Alcotest.test_case "drill direction" `Quick test_monitor_drill_direction;
          QCheck_alcotest.to_alcotest prop_partition_under_random_allocations;
        ] );
      ( "cover",
        [
          Alcotest.test_case "empty set" `Quick test_cover_empty_set;
          Alcotest.test_case "single counter uncoverable" `Quick
            test_cover_single_counter_uncoverable;
          Alcotest.test_case "finds mergeable ancestor" `Quick test_cover_finds_mergeable_ancestor;
          Alcotest.test_case "multi-switch cover" `Quick test_cover_multi_switch;
          Alcotest.test_case "rounding tie takes the first slot" `Quick test_cover_rounding_tie;
          Alcotest.test_case "candidate slots read, pinned" `Quick test_cover_scans_pinned;
          Alcotest.test_case "a warmed configure allocates nothing" `Quick
            test_warm_configure_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_rules_for_matches_s_sets;
          QCheck_alcotest.to_alcotest prop_counter_array_model;
          test_columns_match_boxed_reference;
          Alcotest.test_case "gap: a resize with the gap inside" `Quick test_gap_resize_in_middle;
          Alcotest.test_case "gap: a merge straddling the gap" `Quick test_gap_merge_straddles;
          Alcotest.test_case "gap: divides at the first and last slot" `Quick
            test_gap_first_and_last;
          QCheck_alcotest.to_alcotest prop_estimates_match_oracles;
          QCheck_alcotest.to_alcotest prop_smoothing_matches_ewma_oracle;
          QCheck_alcotest.to_alcotest prop_recycled_storage_matches_fresh;
          QCheck_alcotest.to_alcotest prop_shared_workspace_matches_own;
        ] );
      ( "task-spec",
        [
          Alcotest.test_case "accuracy metric per kind" `Quick (fun () ->
              let m k = Task_spec.accuracy_metric (spec ~kind:k ()) in
              Alcotest.(check bool) "HH recall" true (m Task_spec.Heavy_hitter = `Recall);
              Alcotest.(check bool) "HHH precision" true
                (m Task_spec.Hierarchical_heavy_hitter = `Precision);
              Alcotest.(check bool) "CD recall" true (m Task_spec.Change_detection = `Recall));
          Alcotest.test_case "spec validation" `Quick (fun () ->
              Alcotest.(check bool) "bad threshold" true
                (try
                   ignore (Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~threshold:0.0 ());
                   false
                 with Invalid_argument _ -> true);
              Alcotest.(check bool) "bad leaf length" true
                (try
                   ignore
                     (Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:20
                        ~threshold:1.0 ());
                   false
                 with Invalid_argument _ -> true));
        ] );
      ( "accuracy-report",
        [
          Alcotest.test_case "overall accuracy" `Quick test_accuracy_overall;
          Alcotest.test_case "report helpers" `Quick test_report_helpers;
          Alcotest.test_case "eight-switch monitor" `Quick test_monitor_eight_switches;
        ] );
      ( "query",
        [
          Alcotest.test_case "builder happy path" `Quick (fun () ->
              let module Query = Dream_tasks.Query in
              match
                Query.(
                  heavy_hitters ~over:"10.0.0.0/8"
                  |> exceeding_mb 16.0
                  |> with_accuracy 0.9
                  |> drill_to 24
                  |> to_spec_exn)
              with
              | spec ->
                Alcotest.(check bool) "kind" true (spec.Task_spec.kind = Task_spec.Heavy_hitter);
                Alcotest.(check (float 1e-9)) "threshold" 16.0 spec.Task_spec.threshold;
                Alcotest.(check (float 1e-9)) "bound" 0.9 spec.Task_spec.accuracy_bound;
                Alcotest.(check int) "leaf" 24 spec.Task_spec.leaf_length
              | exception Invalid_argument msg -> Alcotest.fail msg);
          Alcotest.test_case "builder errors" `Quick (fun () ->
              let module Query = Dream_tasks.Query in
              let is_err q =
                match Query.to_spec_exn q with _ -> false | exception Invalid_argument _ -> true
              in
              Alcotest.(check bool) "bad prefix" true
                (is_err Query.(heavy_hitters ~over:"nonsense"));
              Alcotest.(check bool) "bad threshold" true
                (is_err Query.(heavy_hitters ~over:"10.0.0.0/8" |> exceeding_mb (-1.0)));
              Alcotest.(check bool) "bad accuracy" true
                (is_err Query.(heavy_hitters ~over:"10.0.0.0/8" |> with_accuracy 1.5));
              Alcotest.(check bool) "drill above filter" true
                (is_err Query.(heavy_hitters ~over:"10.0.0.0/8" |> drill_to 8)));
        ] );
      ( "score",
        [
          Alcotest.test_case "hh" `Quick test_score_hh;
          Alcotest.test_case "hhh" `Quick test_score_hhh;
          Alcotest.test_case "cd" `Quick test_score_cd;
          QCheck_alcotest.to_alcotest prop_score_column_matches_of_slot;
        ] );
      ( "ground-truth",
        [
          Fixtures.seeded_qcheck prop_hhh_range_descent;
        ] );
    ]
