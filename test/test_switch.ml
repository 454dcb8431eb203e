(* Tests for dream.switch: TCAM capacity enforcement, incremental sync
   through the two-cursor key-column merge (against the Set.diff oracle),
   counter reads against aggregates, the set-based TCAM as a differential
   oracle, churn statistics, and the control-loop delay model. *)

module Prefix = Prefix_ops
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Tcam = Dream_switch.Tcam
module Switch = Dream_switch.Switch
module Delay_model = Dream_switch.Delay_model
module Gc_stats = Dream_obs.Gc_stats

let p = Prefix.of_string

let k s = Prefix.key (p s)

type sync_result = { added : int; removed : int; refused : int }

(* Incremental sync the way the controller's rule sync does it: one
   two-cursor merge of the owner's live key column against the desired
   keys for the removals, then one of the desired keys against the column
   for the installs, each edit made at the cursor; unchanged rules are
   untouched.  [on_remove] and [on_install] see every key the walks try,
   in order. *)
let sync ?(on_remove = ignore) ?(on_install = ignore) t ~owner ~prefixes =
  let desired = Array.of_list (List.sort_uniq Int.compare (List.map Prefix.key prefixes)) in
  let have = Tcam.rules t ~owner in
  let rec removals h j n =
    if h >= Tcam.count have then n
    else begin
      let key = Tcam.key have h in
      if j < Array.length desired && desired.(j) < key then removals h (j + 1) n
      else if j < Array.length desired && desired.(j) = key then removals (h + 1) (j + 1) n
      else begin
        on_remove key;
        (* A removal closes the column up under the cursor. *)
        Tcam.remove_at t have h;
        removals h j (n + 1)
      end
    end
  in
  let removed = removals 0 0 0 in
  let rec installs h j (a, r) =
    if j >= Array.length desired then (a, r)
    else begin
      let key = desired.(j) in
      if h < Tcam.count have && Tcam.key have h < key then installs (h + 1) j (a, r)
      else if h < Tcam.count have && Tcam.key have h = key then installs (h + 1) (j + 1) (a, r)
      else begin
        on_install key;
        if Tcam.insert_at t have h key then installs (h + 1) (j + 1) (a + 1, r)
        else installs h (j + 1) (a, r + 1)
      end
    end
  in
  let added, refused = installs 0 0 (0, 0) in
  { added; removed; refused }

let test_create_invalid () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Tcam.create: capacity must be positive")
    (fun () -> ignore (Tcam.create ~capacity:0))

let test_install_remove () =
  let t = Tcam.create ~capacity:4 in
  Alcotest.(check bool) "install ok" true (Tcam.install t ~owner:1 (k "10.0.0.0/8") = Ok ());
  Alcotest.(check int) "used" 1 (Tcam.used t);
  Alcotest.(check int) "used_by owner" 1 (Tcam.used_by t ~owner:1);
  Alcotest.(check bool) "duplicate" true (Tcam.install t ~owner:1 (k "10.0.0.0/8") = Error `Duplicate);
  Alcotest.(check bool) "removed" true (Tcam.remove t ~owner:1 (k "10.0.0.0/8"));
  Alcotest.(check bool) "remove absent" false (Tcam.remove t ~owner:1 (k "10.0.0.0/8"));
  Alcotest.(check int) "empty again" 0 (Tcam.used t)

let test_capacity_enforced () =
  let t = Tcam.create ~capacity:2 in
  ignore (Tcam.install t ~owner:1 (k "10.0.0.0/8"));
  ignore (Tcam.install t ~owner:2 (k "11.0.0.0/8"));
  Alcotest.(check bool) "full" true (Tcam.install t ~owner:3 (k "12.0.0.0/8") = Error `Capacity);
  Alcotest.(check int) "free" 0 (Tcam.capacity t - Tcam.used t)

let test_same_prefix_two_owners () =
  let t = Tcam.create ~capacity:4 in
  Alcotest.(check bool) "owner 1" true (Tcam.install t ~owner:1 (k "10.0.0.0/8") = Ok ());
  Alcotest.(check bool) "owner 2 same prefix" true (Tcam.install t ~owner:2 (k "10.0.0.0/8") = Ok ());
  Alcotest.(check int) "two entries" 2 (Tcam.used t)

let test_remove_owner () =
  let t = Tcam.create ~capacity:8 in
  ignore (Tcam.install t ~owner:1 (k "10.0.0.0/8"));
  ignore (Tcam.install t ~owner:1 (k "11.0.0.0/8"));
  ignore (Tcam.install t ~owner:2 (k "12.0.0.0/8"));
  Alcotest.(check int) "removed two" 2 (Tcam.remove_owner t ~owner:1);
  Alcotest.(check int) "other owner kept" 1 (Tcam.used t);
  Alcotest.(check (list int)) "owners" [ 2 ] (List.map fst (Tcam.dump t))

(* A removed owner's column goes to the next new owner with the room it
   grew: the 100 installs that grew it once do not grow it again. *)
let test_column_recycled () =
  let t = Tcam.create ~capacity:256 in
  let keys =
    List.init 100 (fun i -> Prefix.key (Prefix.nth_descendant (p "10.0.0.0/8") ~length:24 i))
  in
  List.iter (fun key -> ignore (Tcam.install t ~owner:1 key)) keys;
  let grown = Tcam.rules t ~owner:1 in
  Alcotest.(check int) "removed" 100 (Tcam.remove_owner t ~owner:1);
  let col = Tcam.rules t ~owner:2 in
  Alcotest.(check bool) "the new owner's column is the removed owner's" true (col == grown);
  Alcotest.(check int) "and holds nothing" 0 (Tcam.count col);
  let minor_words f =
    let before = Gc_stats.read Gc_stats.real in
    f ();
    (Gc_stats.sub (Gc_stats.read Gc_stats.real) before).Gc_stats.minor_words
  in
  let empty = minor_words ignore in
  let install key = ignore (Tcam.install t ~owner:2 key) in
  let words = minor_words (fun () -> List.iter install keys) in
  Alcotest.(check (float 0.0)) "installing into it allocates nothing" 0.0 (words -. empty);
  Alcotest.(check int) "every rule landed" 100 (Tcam.used_by t ~owner:2);
  Alcotest.(check bool) "a fresh owner gets a fresh column" true (Tcam.rules t ~owner:3 != grown)

let test_sync_incremental () =
  let t = Tcam.create ~capacity:8 in
  let oracle = Tcam.create ~capacity:8 in
  (* The oracle drives its own table through Set.diff. *)
  let step prefixes ~added ~removed =
    let d = sync t ~owner:1 ~prefixes in
    let o = Reference_sync.sync oracle ~owner:1 ~prefixes in
    Alcotest.(check int) "added" added d.added;
    Alcotest.(check int) "removed" removed d.removed;
    Alcotest.(check int) "added as the Set.diff oracle" o.Reference_sync.added d.added;
    Alcotest.(check int) "removed as the Set.diff oracle" o.Reference_sync.removed d.removed;
    Alcotest.(check (list string)) "same table as the oracle"
      (List.map Prefix.to_string (Fixtures.tcam_rules oracle ~owner:1))
      (List.map Prefix.to_string (Fixtures.tcam_rules t ~owner:1))
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
    (List.map Prefix.to_string (Fixtures.tcam_rules t ~owner:1));
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
  let keys = Array.make 2 0 and vols = Array.make 2 0.0 in
  let n = Tcam.read t (Tcam.find t ~owner:1) agg ~keys ~vols in
  Alcotest.(check int) "two counters" 2 n;
  Alcotest.(check (list int)) "key order" [ k "10.0.0.0/9"; k "10.128.0.0/9" ] (Array.to_list keys);
  Alcotest.(check (float 1e-9)) "left" 3.0 vols.(0);
  Alcotest.(check (float 1e-9)) "right" 5.0 vols.(1)

let test_stats_tracking () =
  let t = Tcam.create ~capacity:8 in
  ignore (sync t ~owner:1 ~prefixes:[ p "10.0.0.0/8"; p "11.0.0.0/8" ]);
  ignore (Tcam.read t (Tcam.find t ~owner:1) Aggregate.empty ~keys:(Array.make 2 0) ~vols:(Array.make 2 0.0));
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
    (List.map Prefix.to_string (Fixtures.tcam_rules t ~owner:1))

(* ---- Switch ---- *)

let test_network () =
  let switches = Switch.network ~num_switches:4 ~capacity:128 () in
  Alcotest.(check int) "four switches" 4 (Array.length switches);
  Array.iteri
    (fun i sw ->
      Alcotest.(check int) "id is index" i (Switch.id sw);
      Alcotest.(check int) "capacity" 128 (Switch.capacity sw))
    switches

(* ---- Delay model ---- *)

let test_delay_fetch_save () =
  let fetch = Delay_model.fetch_ms ~rules:512 ~switches:1 in
  let save = Delay_model.save_ms ~installs:512 ~removals:0 ~switches:1 in
  (* Paper: saving 512 rules takes under 20 ms on software switches, and
     per-rule save costs more than per-rule fetch. *)
  Alcotest.(check bool) "512 saves under 20ms" true (save < 20.0);
  Alcotest.(check bool) "save/rule > fetch/rule" true (save > fetch)

let test_delay_fetch_dominates_incremental_save () =
  (* Fetch-all vs save-few (90% unchanged): fetch dominates, matching
     Section 6.5. *)
  let fetch = Delay_model.fetch_ms ~rules:1000 ~switches:8 in
  let save = Delay_model.save_ms ~installs:100 ~removals:100 ~switches:8 in
  Alcotest.(check bool) "fetch dominates" true (fetch > save)

let test_delay_miss_fraction () =
  Alcotest.(check (float 1e-9)) "no installs, no loss" 0.0
    (Delay_model.install_miss_fraction ~installs:0 ~switches:0);
  let f = Delay_model.install_miss_fraction ~installs:512 ~switches:1 in
  Alcotest.(check bool) "between 0 and 1" true (f > 0.0 && f < 1.0);
  (* 100000 saves take 3.8 s, more than the 1 s epoch. *)
  let clamped = Delay_model.install_miss_fraction ~installs:100000 ~switches:1 in
  Alcotest.(check (float 1e-9)) "clamped at 1" 1.0 clamped

let test_delay_degenerate_batches () =
  (* Zero switches: no batch, so no RTT — only the (empty) per-rule term. *)
  Alcotest.(check (float 1e-9)) "fetch of nothing is free" 0.0
    (Delay_model.fetch_ms ~rules:0 ~switches:0);
  Alcotest.(check (float 1e-9)) "save of nothing is free" 0.0
    (Delay_model.save_ms ~installs:0 ~removals:0 ~switches:0);
  (* Zero installs against a touched switch still pays the round trip. *)
  Alcotest.(check (float 1e-9)) "empty batch pays RTT only" Delay_model.rtt_ms
    (Delay_model.save_ms ~installs:0 ~removals:0 ~switches:1);
  Alcotest.(check (float 1e-9)) "rules without switches pay no RTT"
    (Delay_model.fetch_per_rule_ms *. 100.0)
    (Delay_model.fetch_ms ~rules:100 ~switches:0);
  (* Negative counts are treated as zero, not as negative time. *)
  Alcotest.(check (float 1e-9)) "negative rules clamp to 0" 0.0
    (Delay_model.fetch_ms ~rules:(-5) ~switches:0)

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
      let t = Tcam.create ~capacity:64 in
      List.iter (fun q -> ignore (Tcam.install t ~owner:1 (Prefix.key q))) installed;
      let removes = ref [] and installs = ref [] in
      let d =
        sync t ~owner:1 ~prefixes:desired
          ~on_remove:(fun key -> removes := key :: !removes)
          ~on_install:(fun key -> installs := key :: !installs)
      in
      let to_remove, to_add = Reference_sync.plan ~installed ~desired in
      let keys = List.map Prefix.key in
      List.rev !removes = keys to_remove
      && List.rev !installs = keys to_add
      && d.removed = List.length to_remove
      && d.added = List.length to_add
      && List.equal Prefix.equal (Fixtures.tcam_rules t ~owner:1) desired)

(* Edits at the merge cursor leave the table as the keyed edits of the
   same diff do, on columns beside another owner's and under any
   capacity: the same columns, [used] and stats, and the same installs
   refused. *)
let prop_cursor_edits_match_keyed =
  QCheck.Test.make ~name:"insert_at/remove_at at the cursor = keyed install/remove" ~count:500
    QCheck.(quad sorted_prefixes sorted_prefixes sorted_prefixes (int_range 1 40))
    (fun (other, installed, desired, capacity) ->
      let filled () =
        let t = Tcam.create ~capacity in
        List.iter (fun q -> ignore (Tcam.install t ~owner:2 (Prefix.key q))) other;
        List.iter (fun q -> ignore (Tcam.install t ~owner:1 (Prefix.key q))) installed;
        t
      in
      let at_cursor = filled () and keyed = filled () in
      let d = sync at_cursor ~owner:1 ~prefixes:desired in
      let to_remove, to_add =
        Reference_sync.plan ~installed:(Fixtures.tcam_rules keyed ~owner:1) ~desired
      in
      let removed = List.filter (fun q -> Tcam.remove keyed ~owner:1 (Prefix.key q)) to_remove in
      let added = List.filter (fun q -> Tcam.install keyed ~owner:1 (Prefix.key q) = Ok ()) to_add in
      let st = Tcam.stats at_cursor and sk = Tcam.stats keyed in
      d.removed = List.length removed
      && d.added = List.length added
      && d.refused = List.length to_add - List.length added
      && Tcam.dump at_cursor = Tcam.dump keyed
      && Tcam.used at_cursor = Tcam.used keyed
      && Tcam.used_by at_cursor ~owner:1 = Tcam.used_by keyed ~owner:1
      && st = sk)

(* An edit at an index the key does not belong at is refused, and the
   column of no owner cannot be edited. *)
let test_edit_at_refuses () =
  let t = Tcam.create ~capacity:8 in
  ignore (Tcam.install t ~owner:1 (k "10.0.0.0/8"));
  ignore (Tcam.install t ~owner:1 (k "12.0.0.0/8"));
  let col = Tcam.rules t ~owner:1 in
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "below its place" true (refused (fun () -> Tcam.insert_at t col 0 (k "11.0.0.0/8")));
  Alcotest.(check bool) "above its place" true (refused (fun () -> Tcam.insert_at t col 2 (k "11.0.0.0/8")));
  Alcotest.(check bool) "a duplicate" true (refused (fun () -> Tcam.insert_at t col 1 (k "12.0.0.0/8")));
  Alcotest.(check bool) "past the end" true (refused (fun () -> Tcam.remove_at t col 2));
  Alcotest.(check bool) "no owner's column" true
    (refused (fun () -> Tcam.insert_at t (Tcam.find t ~owner:3) 0 (k "11.0.0.0/8")));
  Alcotest.(check bool) "in its place" true (Tcam.insert_at t col 1 (k "11.0.0.0/8"));
  Alcotest.(check (list int)) "column" [ k "10.0.0.0/8"; k "11.0.0.0/8"; k "12.0.0.0/8" ]
    (List.init (Tcam.count col) (Tcam.key col));
  Alcotest.(check int) "find adds no column" 1 (Tcam.fold_owners (fun _ _ n -> n + 1) t 0);
  Alcotest.(check int) "used" 3 (Tcam.used t)

(* ---- the set-based TCAM as a differential oracle ---- *)

type op =
  | Install of int * Prefix.t
  | Remove of int * Prefix.t
  | Remove_owner of int
  | Read of int
  | Wipe

let gen_prefix =
  QCheck.Gen.(
    map2 (fun a len -> Prefix.make ~bits:(a lsl 24) ~length:(6 + len)) (int_bound 0x1F) (int_bound 2))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun o q -> Install (o, q)) (int_bound 3) gen_prefix);
        (4, map2 (fun o q -> Remove (o, q)) (int_bound 3) gen_prefix);
        (1, map (fun o -> Remove_owner o) (int_bound 3));
        (3, map (fun o -> Read o) (int_bound 3));
        (1, return Wipe);
      ])

let print_op = function
  | Install (o, q) -> Printf.sprintf "install %d %s" o (Prefix.to_string q)
  | Remove (o, q) -> Printf.sprintf "remove %d %s" o (Prefix.to_string q)
  | Remove_owner o -> Printf.sprintf "remove_owner %d" o
  | Read o -> Printf.sprintf "read %d" o
  | Wipe -> "wipe"

let gen_flows =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (map2
         (fun addr v -> Flow.make ~addr ~volume:(float_of_int v /. 7.0))
         (int_bound ((0x20 lsl 24) - 1))
         (int_range 1 1000)))

let same_tables t r =
  let dump_t = Tcam.dump t and dump_r = Reference_tcam.dump r in
  let st = Tcam.stats t and sr = Reference_tcam.stats r in
  List.equal
    (fun (a, pa) (b, pb) -> a = b && List.equal Prefix.equal pa pb)
    dump_t dump_r
  && Tcam.used t = Reference_tcam.used r
  && List.for_all (fun owner -> Tcam.used_by t ~owner = Reference_tcam.used_by r ~owner) [ 0; 1; 2; 3 ]
  && st.Tcam.installs = sr.Reference_tcam.installs
  && st.Tcam.removals = sr.Reference_tcam.removals
  && st.Tcam.fetches = sr.Reference_tcam.fetches

let step t r agg = function
  | Install (owner, q) -> Tcam.install t ~owner (Prefix.key q) = Reference_tcam.install r ~owner q
  | Remove (owner, q) -> Tcam.remove t ~owner (Prefix.key q) = Reference_tcam.remove r ~owner q
  | Remove_owner owner -> Tcam.remove_owner t ~owner = Reference_tcam.remove_owner r ~owner
  | Read owner ->
    let len = Tcam.used_by t ~owner in
    let keys = Array.make len 0 and vols = Array.make len 0.0 in
    let n = Tcam.read t (Tcam.find t ~owner) agg ~keys ~vols in
    let expected = Reference_tcam.read r ~owner agg in
    n = List.length expected
    && List.for_all2
         (fun (q, v) (key, vol) ->
           Prefix.key q = key && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float vol))
         expected
         (List.combine (Array.to_list keys) (Array.to_list vols))
  | Wipe ->
    Tcam.wipe t;
    Reference_tcam.wipe r;
    true

let prop_matches_set_oracle =
  QCheck.Test.make ~name:"key columns = set-based oracle (reads bitwise)" ~count:300
    (QCheck.make
       ~print:(fun (ops, _) -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair (list_size (int_range 0 80) gen_op) gen_flows))
    (fun (ops, flows) ->
      let t = Tcam.create ~capacity:12 and r = Reference_tcam.create ~capacity:12 in
      let agg = Aggregate.of_flows flows in
      List.for_all (fun op -> step t r agg op && same_tables t r) ops)

let prop_used_equals_sum_of_owners =
  QCheck.Test.make ~name:"used = sum over owners" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_bound 3) (int_bound 0xFF)))
    (fun entries ->
      let t = Tcam.create ~capacity:256 in
      List.iter
        (fun (owner, addr) -> ignore (Tcam.install t ~owner (Prefix.key (Prefix.of_address addr))))
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
          Alcotest.test_case "a new owner reuses a removed column" `Quick test_column_recycled;
          Alcotest.test_case "incremental sync" `Quick test_sync_incremental;
          Alcotest.test_case "sync capacity guard" `Quick test_sync_capacity_guard;
          Alcotest.test_case "read counters" `Quick test_read_counters;
          Alcotest.test_case "stats tracking" `Quick test_stats_tracking;
          Alcotest.test_case "rules sorted" `Quick test_rules_sorted;
          QCheck_alcotest.to_alcotest prop_sync_idempotent;
          QCheck_alcotest.to_alcotest prop_sorted_merge_matches_set_diff;
          Fixtures.seeded_qcheck prop_cursor_edits_match_keyed;
          Alcotest.test_case "an edit at a wrong index is refused" `Quick test_edit_at_refuses;
          QCheck_alcotest.to_alcotest prop_used_equals_sum_of_owners;
          QCheck_alcotest.to_alcotest prop_matches_set_oracle;
        ] );
      ("switch", [ Alcotest.test_case "network" `Quick test_network ]);
      ( "delay_model",
        [
          Alcotest.test_case "fetch and save costs" `Quick test_delay_fetch_save;
          Alcotest.test_case "fetch dominates incremental save" `Quick
            test_delay_fetch_dominates_incremental_save;
          Alcotest.test_case "miss fraction" `Quick test_delay_miss_fraction;
          Alcotest.test_case "degenerate batches" `Quick test_delay_degenerate_batches;
        ] );
    ]
