(* Tests for dream.switch: TCAM capacity enforcement, incremental sync
   through the sorted-merge diff (against the Set.diff oracle),
   counter reads against aggregates, churn statistics, and the control-loop
   delay model. *)

module Prefix = Dream_prefix.Prefix
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Tcam = Dream_switch.Tcam
module Switch = Dream_switch.Switch
module Delay_model = Dream_switch.Delay_model

let p = Prefix.of_string

type sync_result = { added : int; removed : int; refused : int }

(* Incremental sync the way the controller does it: one sorted-merge walk
   (Prefix.fold_diff) of the installed rules against the desired ones for
   the removals, then one of the desired against the installed for the
   installs; unchanged rules are untouched. *)
let sync t ~owner ~prefixes =
  let desired = List.sort_uniq Prefix.compare prefixes in
  let removed =
    Prefix.fold_diff
      (fun q n -> if Tcam.remove t ~owner q then n + 1 else n)
      (Tcam.rules_of t ~owner) desired 0
  in
  let added, refused =
    Prefix.fold_diff
      (fun q (a, r) ->
        match Tcam.install t ~owner q with Ok () -> (a + 1, r) | Error _ -> (a, r + 1))
      desired (Tcam.rules_of t ~owner) (0, 0)
  in
  { added; removed; refused }

let test_create_invalid () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Tcam.create: capacity must be positive")
    (fun () -> ignore (Tcam.create ~capacity:0))

let test_install_remove () =
  let t = Tcam.create ~capacity:4 in
  Alcotest.(check bool) "install ok" true (Tcam.install t ~owner:1 (p "10.0.0.0/8") = Ok ());
  Alcotest.(check int) "used" 1 (Tcam.used t);
  Alcotest.(check int) "used_by owner" 1 (Tcam.used_by t ~owner:1);
  Alcotest.(check bool) "duplicate" true (Tcam.install t ~owner:1 (p "10.0.0.0/8") = Error `Duplicate);
  Alcotest.(check bool) "removed" true (Tcam.remove t ~owner:1 (p "10.0.0.0/8"));
  Alcotest.(check bool) "remove absent" false (Tcam.remove t ~owner:1 (p "10.0.0.0/8"));
  Alcotest.(check int) "empty again" 0 (Tcam.used t)

let test_capacity_enforced () =
  let t = Tcam.create ~capacity:2 in
  ignore (Tcam.install t ~owner:1 (p "10.0.0.0/8"));
  ignore (Tcam.install t ~owner:2 (p "11.0.0.0/8"));
  Alcotest.(check bool) "full" true (Tcam.install t ~owner:3 (p "12.0.0.0/8") = Error `Capacity);
  Alcotest.(check int) "free" 0 (Tcam.free t)

let test_same_prefix_two_owners () =
  let t = Tcam.create ~capacity:4 in
  Alcotest.(check bool) "owner 1" true (Tcam.install t ~owner:1 (p "10.0.0.0/8") = Ok ());
  Alcotest.(check bool) "owner 2 same prefix" true (Tcam.install t ~owner:2 (p "10.0.0.0/8") = Ok ());
  Alcotest.(check int) "two entries" 2 (Tcam.used t)

let test_remove_owner () =
  let t = Tcam.create ~capacity:8 in
  ignore (Tcam.install t ~owner:1 (p "10.0.0.0/8"));
  ignore (Tcam.install t ~owner:1 (p "11.0.0.0/8"));
  ignore (Tcam.install t ~owner:2 (p "12.0.0.0/8"));
  Alcotest.(check int) "removed two" 2 (Tcam.remove_owner t ~owner:1);
  Alcotest.(check int) "other owner kept" 1 (Tcam.used t);
  Alcotest.(check (list int)) "owners" [ 2 ] (Tcam.owners t)

let test_sync_incremental () =
  let t = Tcam.create ~capacity:8 in
  let oracle = Tcam.create ~capacity:8 in
  let step prefixes ~added ~removed =
    let d = sync t ~owner:1 ~prefixes in
    let o = Reference_sync.sync oracle ~owner:1 ~prefixes in
    Alcotest.(check int) "added" added d.added;
    Alcotest.(check int) "removed" removed d.removed;
    Alcotest.(check int) "added as the Set.diff oracle" o.Reference_sync.added d.added;
    Alcotest.(check int) "removed as the Set.diff oracle" o.Reference_sync.removed d.removed;
    Alcotest.(check (list string)) "same table as the oracle"
      (List.map Prefix.to_string (Tcam.rules_of oracle ~owner:1))
      (List.map Prefix.to_string (Tcam.rules_of t ~owner:1))
  in
  step [ p "10.0.0.0/8"; p "11.0.0.0/8" ] ~added:2 ~removed:0;
  (* One rule kept, one swapped. *)
  step [ p "10.0.0.0/8"; p "12.0.0.0/8" ] ~added:1 ~removed:1;
  Alcotest.(check int) "still two rules" 2 (Tcam.used_by t ~owner:1);
  (* No-op sync touches nothing. *)
  step [ p "10.0.0.0/8"; p "12.0.0.0/8" ] ~added:0 ~removed:0

let test_sync_capacity_guard () =
  let t = Tcam.create ~capacity:2 in
  ignore (sync t ~owner:1 ~prefixes:[ p "10.0.0.0/8" ]);
  ignore (sync t ~owner:2 ~prefixes:[ p "11.0.0.0/8" ]);
  let d = sync t ~owner:1 ~prefixes:[ p "10.0.0.0/8"; p "12.0.0.0/8" ] in
  Alcotest.(check int) "oversync install refused" 1 d.refused;
  Alcotest.(check int) "table stays at capacity" 2 (Tcam.used t);
  Alcotest.(check (list string)) "kept rule untouched" [ "10.0.0.0/8" ]
    (List.map Prefix.to_string (Tcam.rules_of t ~owner:1));
  Alcotest.(check bool) "Set.diff oracle refuses up front" true
    (try
       ignore (Reference_sync.sync t ~owner:1 ~prefixes:[ p "10.0.0.0/8"; p "12.0.0.0/8" ]);
       false
     with Invalid_argument _ -> true)

let test_read_counters () =
  let t = Tcam.create ~capacity:4 in
  ignore (sync t ~owner:1 ~prefixes:[ p "10.0.0.0/9"; p "10.128.0.0/9" ]);
  let agg =
    Aggregate.of_flows
      [ Flow.make ~addr:0x0A000001 ~volume:3.0; Flow.make ~addr:0x0A800001 ~volume:5.0 ]
  in
  let readings = Tcam.read t ~owner:1 agg in
  Alcotest.(check int) "two counters" 2 (List.length readings);
  List.iter
    (fun (q, v) ->
      if Prefix.equal q (p "10.0.0.0/9") then Alcotest.(check (float 1e-9)) "left" 3.0 v
      else Alcotest.(check (float 1e-9)) "right" 5.0 v)
    readings

let test_stats_tracking () =
  let t = Tcam.create ~capacity:8 in
  ignore (sync t ~owner:1 ~prefixes:[ p "10.0.0.0/8"; p "11.0.0.0/8" ]);
  ignore (Tcam.read t ~owner:1 Aggregate.empty);
  ignore (sync t ~owner:1 ~prefixes:[ p "11.0.0.0/8" ]);
  let s = Tcam.stats t in
  Alcotest.(check int) "installs" 2 s.Tcam.installs;
  Alcotest.(check int) "removals" 1 s.Tcam.removals;
  Alcotest.(check int) "fetches" 2 s.Tcam.fetches;
  Tcam.reset_stats t;
  let s = Tcam.stats t in
  Alcotest.(check int) "reset installs" 0 s.Tcam.installs;
  Alcotest.(check int) "reset fetches" 0 s.Tcam.fetches

let test_rules_sorted () =
  let t = Tcam.create ~capacity:8 in
  ignore (sync t ~owner:1 ~prefixes:[ p "11.0.0.0/8"; p "10.0.0.0/8" ]);
  Alcotest.(check (list string)) "prefix order" [ "10.0.0.0/8"; "11.0.0.0/8" ]
    (List.map Prefix.to_string (Tcam.rules_of t ~owner:1))

(* ---- Switch ---- *)

let test_network () =
  let switches = Switch.network ~num_switches:4 ~capacity:128 in
  Alcotest.(check int) "four switches" 4 (Array.length switches);
  Array.iteri
    (fun i sw ->
      Alcotest.(check int) "id is index" i (Switch.id sw);
      Alcotest.(check int) "capacity" 128 (Switch.capacity sw))
    switches

(* ---- Delay model ---- *)

let test_delay_fetch_save () =
  let c = Delay_model.default in
  let fetch = Delay_model.fetch_ms c ~rules:512 ~switches:1 in
  let save = Delay_model.save_ms c ~installs:512 ~removals:0 ~switches:1 in
  (* Paper: saving 512 rules takes under 20 ms on software switches, and
     per-rule save costs more than per-rule fetch. *)
  Alcotest.(check bool) "512 saves under 20ms" true (save < 20.0);
  Alcotest.(check bool) "save/rule > fetch/rule" true (save > fetch)

let test_delay_fetch_dominates_incremental_save () =
  (* Fetch-all vs save-few (90% unchanged): fetch dominates, matching
     Section 6.5. *)
  let c = Delay_model.default in
  let fetch = Delay_model.fetch_ms c ~rules:1000 ~switches:8 in
  let save = Delay_model.save_ms c ~installs:100 ~removals:100 ~switches:8 in
  Alcotest.(check bool) "fetch dominates" true (fetch > save)

let test_delay_miss_fraction () =
  let c = Delay_model.default in
  Alcotest.(check (float 1e-9)) "no installs, no loss" 0.0
    (Delay_model.install_miss_fraction c ~epoch_ms:1000.0 ~installs:0 ~switches:0);
  let f = Delay_model.install_miss_fraction c ~epoch_ms:1000.0 ~installs:512 ~switches:1 in
  Alcotest.(check bool) "between 0 and 1" true (f > 0.0 && f < 1.0);
  let clamped = Delay_model.install_miss_fraction c ~epoch_ms:1.0 ~installs:100000 ~switches:1 in
  Alcotest.(check (float 1e-9)) "clamped at 1" 1.0 clamped

let test_delay_degenerate_batches () =
  let c = Delay_model.default in
  (* Zero switches: no batch, so no RTT — only the (empty) per-rule term. *)
  Alcotest.(check (float 1e-9)) "fetch of nothing is free" 0.0
    (Delay_model.fetch_ms c ~rules:0 ~switches:0);
  Alcotest.(check (float 1e-9)) "save of nothing is free" 0.0
    (Delay_model.save_ms c ~installs:0 ~removals:0 ~switches:0);
  (* Zero installs against a touched switch still pays the round trip. *)
  Alcotest.(check (float 1e-9)) "empty batch pays RTT only" c.Delay_model.rtt_ms
    (Delay_model.save_ms c ~installs:0 ~removals:0 ~switches:1);
  Alcotest.(check (float 1e-9)) "rules without switches pay no RTT"
    (c.Delay_model.fetch_per_rule_ms *. 100.0)
    (Delay_model.fetch_ms c ~rules:100 ~switches:0);
  (* Negative counts are treated as zero, not as negative time. *)
  Alcotest.(check (float 1e-9)) "negative rules clamp to 0" 0.0
    (Delay_model.fetch_ms c ~rules:(-5) ~switches:0)

let test_delay_miss_fraction_epoch_boundary () =
  let c = Delay_model.default in
  (* A non-positive epoch cannot lose a fraction of itself. *)
  Alcotest.(check (float 1e-9)) "zero epoch" 0.0
    (Delay_model.install_miss_fraction c ~epoch_ms:0.0 ~installs:512 ~switches:1);
  Alcotest.(check (float 1e-9)) "negative epoch" 0.0
    (Delay_model.install_miss_fraction c ~epoch_ms:(-10.0) ~installs:512 ~switches:1);
  (* An update that takes exactly one epoch misses exactly all of it. *)
  let installs = 10 in
  let exact = Delay_model.save_ms c ~installs ~removals:0 ~switches:1 in
  Alcotest.(check (float 1e-9)) "update = epoch misses all" 1.0
    (Delay_model.install_miss_fraction c ~epoch_ms:exact ~installs ~switches:1);
  (* Fraction scales linearly with the epoch length below the clamp. *)
  Alcotest.(check (float 1e-9)) "half the epoch, twice the miss"
    (2.0 *. Delay_model.install_miss_fraction c ~epoch_ms:2000.0 ~installs ~switches:1)
    (Delay_model.install_miss_fraction c ~epoch_ms:1000.0 ~installs ~switches:1)

let prop_sync_idempotent =
  QCheck.Test.make ~name:"sync to same set is a no-op" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (int_bound 0xFFFF))
    (fun addrs ->
      let t = Tcam.create ~capacity:64 in
      let prefixes =
        List.sort_uniq Prefix.compare (List.map Prefix.of_address addrs)
        |> List.filteri (fun i _ -> i < 60)
      in
      ignore (sync t ~owner:1 ~prefixes);
      let d = sync t ~owner:1 ~prefixes in
      d.added = 0 && d.removed = 0 && Tcam.used_by t ~owner:1 = List.length prefixes)

(* Small prefix space (first octet, /6../8) so the lists overlap and nest. *)
let sorted_prefixes =
  QCheck.(
    map
      (fun l ->
        List.sort_uniq Prefix.compare
          (List.map (fun (a, len) -> Prefix.make ~bits:(a lsl 24) ~length:(6 + len)) l))
      (list_of_size Gen.(int_range 0 24) (pair (int_bound 0x1F) (int_bound 2))))

let prop_sorted_merge_matches_set_diff =
  QCheck.Test.make ~name:"sorted-merge diff = Set.diff, in order" ~count:500
    QCheck.(pair sorted_prefixes sorted_prefixes)
    (fun (installed, desired) ->
      let walk xs ys = List.rev (Prefix.fold_diff List.cons xs ys []) in
      let to_remove, to_add = Reference_sync.plan ~installed ~desired in
      List.equal Prefix.equal (walk installed desired) to_remove
      && List.equal Prefix.equal (walk desired installed) to_add)

let prop_used_equals_sum_of_owners =
  QCheck.Test.make ~name:"used = sum over owners" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_bound 3) (int_bound 0xFF)))
    (fun entries ->
      let t = Tcam.create ~capacity:256 in
      List.iter
        (fun (owner, addr) -> ignore (Tcam.install t ~owner (Prefix.of_address addr)))
        entries;
      let total =
        List.fold_left (fun acc owner -> acc + Tcam.used_by t ~owner) 0 [ 0; 1; 2; 3 ]
      in
      total = Tcam.used t)

let () =
  Alcotest.run "dream.switch"
    [
      ( "tcam",
        [
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "install and remove" `Quick test_install_remove;
          Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
          Alcotest.test_case "same prefix, two owners" `Quick test_same_prefix_two_owners;
          Alcotest.test_case "remove owner" `Quick test_remove_owner;
          Alcotest.test_case "incremental sync" `Quick test_sync_incremental;
          Alcotest.test_case "sync capacity guard" `Quick test_sync_capacity_guard;
          Alcotest.test_case "read counters" `Quick test_read_counters;
          Alcotest.test_case "stats tracking" `Quick test_stats_tracking;
          Alcotest.test_case "rules sorted" `Quick test_rules_sorted;
          QCheck_alcotest.to_alcotest prop_sync_idempotent;
          QCheck_alcotest.to_alcotest prop_sorted_merge_matches_set_diff;
          QCheck_alcotest.to_alcotest prop_used_equals_sum_of_owners;
        ] );
      ("switch", [ Alcotest.test_case "network" `Quick test_network ]);
      ( "delay_model",
        [
          Alcotest.test_case "fetch and save costs" `Quick test_delay_fetch_save;
          Alcotest.test_case "fetch dominates incremental save" `Quick
            test_delay_fetch_dominates_incremental_save;
          Alcotest.test_case "miss fraction" `Quick test_delay_miss_fraction;
          Alcotest.test_case "degenerate batches" `Quick test_delay_degenerate_batches;
          Alcotest.test_case "miss fraction at epoch boundaries" `Quick
            test_delay_miss_fraction_epoch_boundary;
        ] );
    ]
