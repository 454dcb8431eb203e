(* Tests for dream.traffic: flow combination, aggregate prefix-volume
   queries (against a brute-force model), topology switch mapping, traffic
   profiles and the synthetic generator's calibration and determinism. *)

module Rng = Dream_util.Rng
module Prefix = Prefix_ops
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Switch_id = Dream_traffic.Switch_id
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Profile = Dream_traffic.Profile
module Generator = Dream_traffic.Generator
module Epoch_data = Dream_traffic.Epoch_data

(* Whether the mask holds the sub-filter bit of a switch. *)
let mask_mem topology sw m =
  let b = Topology.bit_of_switch topology sw in
  b >= 0 && Switch_mask.mem_bit b m

let p = Prefix.of_string

let flow addr volume = Flow.make ~addr ~volume

(* ---- Flow ---- *)

let test_flow_combine () =
  let combined = Reference_store.combine [ flow 5 1.0; flow 3 2.0; flow 5 4.0 ] in
  Alcotest.(check int) "two distinct addrs" 2 (List.length combined);
  (match combined with
  | [ a; b ] ->
    Alcotest.(check int) "sorted" 3 a.Flow.addr;
    Alcotest.(check (float 1e-9)) "summed" 5.0 b.Flow.volume
  | _ -> Alcotest.fail "expected two flows");
  Alcotest.(check (float 1e-9)) "total" 7.0
    (List.fold_left (fun acc f -> acc +. f.Flow.volume) 0.0 combined)

(* ---- Aggregate ---- *)

let sample_flows =
  [ flow 0x0A000001 1.0; flow 0x0A000002 2.0; flow 0x0A800000 4.0; flow 0x0B000000 8.0 ]

let test_aggregate_volume () =
  let a = Aggregate.of_flows sample_flows in
  Alcotest.(check (float 1e-9)) "whole space" 15.0 (Aggregate.volume a Prefix.root);
  Alcotest.(check (float 1e-9)) "10/8" 7.0 (Aggregate.volume a (p "10.0.0.0/8"));
  Alcotest.(check (float 1e-9)) "10/9 left" 3.0 (Aggregate.volume a (p "10.0.0.0/9"));
  Alcotest.(check (float 1e-9)) "exact" 2.0 (Aggregate.volume a (p "10.0.0.2/32"));
  Alcotest.(check (float 1e-9)) "empty region" 0.0 (Aggregate.volume a (p "192.0.0.0/8"))

let test_aggregate_counts () =
  let a = Aggregate.of_flows sample_flows in
  Alcotest.(check int) "all" 4 (Aggregate.num_addresses a);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Aggregate.total a)

let test_aggregate_flows_in () =
  let a = Aggregate.of_flows sample_flows in
  let inside = Aggregate.flows_in a (p "10.0.0.0/9") in
  Alcotest.(check int) "two flows" 2 (List.length inside)

(* Two switches sharing address 2: the network-wide view sums it. *)
let test_aggregate_merge () =
  let data =
    Epoch_data.of_flows ~epoch:0 [ (0, [ flow 1 1.0; flow 2 2.0 ]); (1, [ flow 2 3.0; flow 9 4.0 ]) ]
  in
  let m = data.Epoch_data.combined in
  Alcotest.(check (float 1e-9)) "overlap summed" 5.0 (Aggregate.volume m (Prefix.of_address 2));
  Alcotest.(check int) "distinct addrs" 3 (Aggregate.num_addresses m);
  Alcotest.(check (float 1e-9)) "switch 0 intact" 3.0 (Aggregate.total (Epoch_data.switch_view data 0))

let test_aggregate_empty () =
  Alcotest.(check (float 1e-9)) "empty total" 0.0 (Aggregate.total Aggregate.empty);
  Alcotest.(check int) "no addresses" 0 (Aggregate.num_addresses Aggregate.empty)

let gen_flows =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (map2 (fun a v -> flow (a land 0xFFFF) (float_of_int (v + 1))) (int_bound 0xFFFF)
         (int_bound 100)))

let gen_prefix16 =
  QCheck.Gen.(
    int_range 16 32 >>= fun length ->
    map (fun bits -> Prefix.make ~bits:(bits land 0xFFFF) ~length) (int_bound 0xFFFF))

let prop_aggregate_volume_model =
  QCheck.Test.make ~name:"aggregate volume = brute force sum" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_flows gen_prefix16))
    (fun (flows, q) ->
      let a = Aggregate.of_flows flows in
      let expected =
        List.fold_left
          (fun acc (f : Flow.t) ->
            if Prefix.contains q f.Flow.addr then acc +. f.Flow.volume else acc)
          0.0 flows
      in
      Float.abs (Aggregate.volume a q -. expected) < 1e-6)

let prop_aggregate_children_sum =
  QCheck.Test.make ~name:"children volumes sum to parent" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_flows gen_prefix16))
    (fun (flows, q) ->
      let a = Aggregate.of_flows flows in
      match Prefix.children q with
      | None -> true
      | Some (l, r) ->
        Float.abs (Aggregate.volume a q -. (Aggregate.volume a l +. Aggregate.volume a r)) < 1e-6)

(* ---- Topology ---- *)

let mk_topology ?(seed = 1) ?(num_switches = 8) ?(switches_per_task = 4) () =
  Topology.create (Rng.create seed) ~filter:(p "10.16.0.0/12") ~num_switches ~switches_per_task

let test_topology_subfilters () =
  let t = mk_topology () in
  let subs = Topology.subfilters t in
  Alcotest.(check int) "k subfilters" 4 (List.length subs);
  List.iter
    (fun (sub, _) -> Alcotest.(check int) "length filter+2" 14 (Prefix.length sub))
    subs;
  let switches = List.map snd subs in
  Alcotest.(check int) "distinct switches" 4 (List.length (List.sort_uniq compare switches))

let test_topology_switch_set () =
  let t = mk_topology () in
  Alcotest.(check int) "filter sees all 4" 4
    (Switch_mask.cardinal (Topology.prefix_mask t (p "10.16.0.0/12")));
  Alcotest.(check int) "subfilter sees 1" 1
    (Switch_mask.cardinal (Topology.prefix_mask t (p "10.16.0.0/14")));
  Alcotest.(check int) "deep prefix sees 1" 1
    (Switch_mask.cardinal (Topology.prefix_mask t (p "10.16.3.0/24")));
  Alcotest.(check int) "outside filter sees none" 0
    (Switch_mask.cardinal (Topology.prefix_mask t (p "11.0.0.0/12")))

let test_topology_switch_of_address () =
  let t = mk_topology () in
  (match Topology.switch_of_address t 0x0A100001 with
  | Some sw -> Alcotest.(check bool) "valid switch" true (sw >= 0 && sw < 8)
  | None -> Alcotest.fail "address inside filter must map");
  Alcotest.(check bool) "outside filter" true (Topology.switch_of_address t 0x0B000000 = None)

let test_topology_address_consistent_with_set () =
  let t = mk_topology ~seed:3 () in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let addr = 0x0A100000 + Rng.int rng (1 lsl 20) in
    match Topology.switch_of_address t addr with
    | Some sw ->
      let mask = Topology.prefix_mask t (Prefix.of_address addr) in
      Alcotest.(check bool) "prefix_mask contains switch_of_address" true
        (mask_mem t sw mask)
    | None -> Alcotest.fail "inside filter"
  done

let test_topology_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Topology.create: switches_per_task must be a power of two") (fun () ->
      ignore (mk_topology ~switches_per_task:3 ()));
  Alcotest.check_raises "more than switches"
    (Invalid_argument "Topology.create: switches_per_task exceeds num_switches") (fun () ->
      ignore (mk_topology ~num_switches:2 ~switches_per_task:4 ()));
  Alcotest.check_raises "more than fit a bitmask"
    (Invalid_argument "Topology.create: switches_per_task exceeds 32") (fun () ->
      ignore (mk_topology ~num_switches:64 ~switches_per_task:64 ()))

(* A checkpointed topology must carry exactly [switches_per_task]
   sub-filters: the monitor's bitmasks have one bit per sub-filter.  And
   it can only be a layout [Topology.create] makes, the filter's equal
   split in address order onto distinct switches, since routing reads an
   address's sub-filter off at a shift.  The switch ids themselves are the
   restoring controller's to check. *)
let test_topology_parse_checks_subfilters () =
  let module C = Dream_util.Codec in
  let doc = C.encode Topology.codec (mk_topology ()) in
  let t = C.decode Topology.codec doc in
  Alcotest.(check int) "round trip" 4 (Topology.switches_per_task t);
  let lines = String.split_on_char '\n' doc in
  let nth_value key i =
    List.nth (List.filter (fun l -> String.starts_with ~prefix:(key ^ " ") l) lines) i
  in
  (* The document with each line [old] of [edits] replaced by its [new]. *)
  let edit edits =
    List.map (fun l -> Option.value (List.assoc_opt l edits) ~default:l) lines
    |> String.concat "\n"
  in
  let tamper key i value = edit [ (nth_value key i, key ^ " " ^ value) ] in
  let rejected what doc =
    Alcotest.(check bool) what true
      (match C.decode Topology.codec doc with
      | _ -> false
      | exception C.Parse_error _ -> true)
  in
  rejected "sub-filter count mismatch rejected" (tamper "switches_per_task" 0 "8");
  rejected "sub-filters out of address order" (tamper "sub" 0 "10.20.0.0/14");
  rejected "a sub-filter of another length" (tamper "sub" 0 "10.16.0.0/15");
  let sw0 = List.nth (String.split_on_char ' ' (nth_value "sw" 0)) 1 in
  rejected "two sub-filters on one switch" (tamper "sw" 1 sw0);
  rejected "a split of three"
    (edit [ ("switches_per_task 4", "switches_per_task 3"); ("subfilters 4", "subfilters 3") ])

(* The bitmask view is the switch set, bit i standing for sub-filter i. *)
let test_topology_prefix_mask () =
  let t = mk_topology ~seed:4 ~num_switches:16 ~switches_per_task:8 () in
  let rng = Rng.create 9 in
  let set_of_mask = Reference_switch_set.set_of_mask t in
  for _ = 1 to 500 do
    (* Around the /12 filter: its ancestors, itself, and prefixes below. *)
    let length = 8 + Rng.int rng 25 in
    let bits = 0x0A000000 + Rng.int rng (1 lsl 24) in
    let q = Prefix.make ~bits ~length in
    Alcotest.(check bool)
      (Printf.sprintf "mask of %s" (Prefix.to_string q))
      true
      (Switch_id.Set.equal (set_of_mask (Topology.prefix_mask t q))
         (Reference_switch_set.switch_set t q))
  done

(* Switch_mask against the Set form, on random topologies (1 to 64
   switches, 1 to 32 sub-filters) and prefixes in and around the filter:
   the fold visits the members in ascending switch-id order, and mem and
   cardinal agree. *)
let prop_switch_mask_matches_set =
  let gen =
    QCheck.Gen.(
      let* log_k = int_range 0 5 in
      let switches_per_task = 1 lsl log_k in
      let* num_switches = int_range switches_per_task 64 in
      let* filter_len = int_range 0 (32 - 5) in
      let* filter_bits = int_bound ((1 lsl 30) - 1) in
      let* seed = int_bound 10_000 in
      let* prefixes =
        list_size (int_range 1 20)
          (pair (int_range 0 32) (int_bound ((1 lsl 30) - 1)))
      in
      return (num_switches, switches_per_task, filter_len, filter_bits * 4, seed, prefixes))
  in
  QCheck.Test.make ~name:"switch mask = switch set" ~count:300 (QCheck.make gen)
    (fun (num_switches, switches_per_task, filter_len, filter_bits, seed, prefixes) ->
      let filter = Prefix.make ~bits:filter_bits ~length:filter_len in
      let t = Topology.create (Rng.create seed) ~filter ~num_switches ~switches_per_task in
      List.for_all
        (fun (len, bits) ->
          (* Half the prefixes inside the filter, half anywhere. *)
          let bits =
            if len land 1 = 0 then Prefix.bits filter lor (bits lsr filter_len) else bits * 4
          in
          let q = Prefix.make ~bits ~length:len in
          let set = Reference_switch_set.switch_set t q in
          let mask = Topology.prefix_mask t q in
          let ordered = List.rev (Switch_mask.fold t (fun sw _ acc -> sw :: acc) mask []) in
          ordered = Switch_id.Set.elements set
          && Switch_mask.fold t (fun sw b ok -> ok && Topology.switch_of_bit t b = sw) mask true
          && Switch_mask.cardinal mask = Switch_id.Set.cardinal set
          && List.for_all
               (fun sw -> mask_mem t sw mask = Switch_id.Set.mem sw set)
               (List.init (num_switches + 2) (fun sw -> sw - 1)))
        prefixes)

(* Topology.bits_mask's arithmetic against the sub-filter loop it
   replaced, on random equal splits (1 to 32 sub-filters of a /0 to /27
   filter).  Each drawn address yields prefixes inside the filter at /0,
   at the filter's length, one bit above a sub-filter's, at it, one bit
   below it and at /32; one at a random length at most the filter's (the
   filter's ancestors); the same lengths anywhere; and, for a filter
   longer than /0, prefixes that leave it at one bit. *)
let prop_bits_mask_matches_loop =
  let address =
    QCheck.Gen.(map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF))
  in
  let gen =
    QCheck.Gen.(
      let* log_k = int_range 0 5 in
      let* flen = int_range 0 27 in
      let* fbits = address in
      let* seed = int_bound 10_000 in
      let* addrs = list_size (int_range 1 10) address in
      return (log_k, flen, fbits, seed, addrs))
  in
  QCheck.Test.make ~name:"bits_mask = sub-filter loop" ~count:500 (QCheck.make gen)
    (fun (log_k, flen, fbits, seed, addrs) ->
      let k = 1 lsl log_k in
      let filter = Prefix.make ~bits:fbits ~length:flen in
      let t = Topology.create (Rng.create seed) ~filter ~num_switches:k ~switches_per_task:k in
      let split = flen + log_k in
      let clamp l = max 0 (min Prefix.address_bits l) in
      let lengths = List.map clamp [ 0; flen; split - 1; split; split + 1; Prefix.address_bits ] in
      let agrees addr length =
        let bits = Prefix.bits (Prefix.make ~bits:addr ~length) in
        Topology.bits_mask t ~bits ~length = Reference_switch_set.bits_mask t ~bits ~length
      in
      List.for_all
        (fun r ->
          let inside = Prefix.bits filter lor (r land (Prefix.size filter - 1)) in
          List.for_all (agrees inside) (r mod (flen + 1) :: lengths)
          && List.for_all (agrees r) lengths
          && (flen = 0
             ||
             let j = r mod flen in
             let outside = inside lxor (1 lsl (Prefix.address_bits - 1 - j)) in
             List.for_all (agrees outside) (List.map (max (j + 1)) lengths)))
        addrs)

(* ---- Profile ---- *)

let test_profile_default_valid () =
  match Profile.validate (Profile.default ~threshold:8.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_profile_invalid () =
  let base = Profile.default ~threshold:8.0 in
  let bad = { base with Profile.churn = 1.5 } in
  Alcotest.(check bool) "churn out of range" true (Result.is_error (Profile.validate bad));
  let bad = { base with Profile.heavy_alpha = 0.9 } in
  Alcotest.(check bool) "alpha too small" true (Result.is_error (Profile.validate bad));
  let bad =
    {
      base with
      Profile.phases =
        [ { Profile.start_epoch = 10; heavy_scale = 1.0 }; { Profile.start_epoch = 5; heavy_scale = 1.0 } ];
    }
  in
  Alcotest.(check bool) "unsorted phases" true (Result.is_error (Profile.validate bad))

(* ---- Generator ---- *)

let mk_generator ?(seed = 7) ?(profile = Profile.default ~threshold:8.0) () =
  let rng = Rng.create seed in
  let topology = mk_topology ~seed () in
  Generator.create (Rng.split rng) ~topology ~profile

let test_generator_deterministic () =
  let volumes g =
    List.init 5 (fun _ -> Aggregate.total (Generator.next g).Epoch_data.combined)
  in
  let a = volumes (mk_generator ()) and b = volumes (mk_generator ()) in
  Alcotest.(check (list (float 1e-9))) "same trace" a b

let test_generator_heavy_calibration () =
  (* The default profile should actually produce roughly heavy_count
     sources above the threshold. *)
  let profile = Profile.default ~threshold:8.0 in
  let g = mk_generator ~profile () in
  let data = Generator.next g in
  let heavies =
    Aggregate.fold data.Epoch_data.combined ~init:0 ~f:(fun acc f ->
        if f.Flow.volume > 8.0 then acc + 1 else acc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "heavies %d near nominal %d" heavies profile.Profile.heavy_count)
    true
    (heavies >= profile.Profile.heavy_count / 2 && heavies <= profile.Profile.heavy_count * 2)

let test_generator_within_filter () =
  let g = mk_generator () in
  let data = Generator.next g in
  Aggregate.fold data.Epoch_data.combined ~init:() ~f:(fun () f ->
      Alcotest.(check bool) "flow inside filter" true
        (Prefix.contains (p "10.16.0.0/12") f.Flow.addr))

(* A profile of [heavy_count] heavy flows and nothing else: no churn, no
   jitter, no phases. *)
let steady ~threshold ~heavy_count =
  {
    Profile.threshold;
    heavy_count;
    medium_count = 0;
    small_count = 0;
    heavy_alpha = 1.25;
    churn = 0.0;
    jitter = 0.0;
    phases = [];
    switch_skew = 0.0;
  }

(* The live heavy sources, as the generator's checkpoint text counts them
   on its [heavies] line. *)
let heavies g =
  String.split_on_char '\n' (Dream_util.Codec.encode Generator.codec g)
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "heavies"; n ] -> Some (int_of_string n)
         | _ -> None)
  |> Option.get

let test_generator_phases_scale_population () =
  let profile =
    {
      (steady ~threshold:8.0 ~heavy_count:20) with
      Profile.phases =
        [
          { Profile.start_epoch = 0; heavy_scale = 1.0 };
          { Profile.start_epoch = 10; heavy_scale = 2.0 };
        ];
    }
  in
  let g = mk_generator ~profile () in
  (* Epoch 9 (the 10th produced) is still before the phase boundary;
     epoch 10 doubles the population. *)
  for _ = 1 to 10 do
    ignore (Generator.next g)
  done;
  Alcotest.(check int) "before phase" 20 (heavies g);
  ignore (Generator.next g);
  Alcotest.(check int) "after phase doubles" 40 (heavies g)

let test_generator_per_switch_split () =
  let g = mk_generator () in
  let data = Generator.next g in
  let sum_parts =
    Switch_id.Map.fold (fun _ agg acc -> acc +. Aggregate.total agg) data.Epoch_data.per_switch 0.0
  in
  Alcotest.(check (float 1e-6)) "per-switch volumes sum to combined"
    (Aggregate.total data.Epoch_data.combined)
    sum_parts;
  Alcotest.(check bool) "several active switches" true
    (Switch_id.Set.cardinal (Epoch_data.active_switches data) >= 2)

let test_generator_steady_no_churn () =
  let profile = steady ~threshold:8.0 ~heavy_count:10 in
  let g = mk_generator ~profile () in
  let d1 = Generator.next g in
  let d2 = Generator.next g in
  (* No churn, no jitter: the exact same addresses and volumes. *)
  let flows agg = Aggregate.fold agg ~init:[] ~f:(fun acc f -> f :: acc) in
  Alcotest.(check int) "same flow count"
    (List.length (flows d1.Epoch_data.combined))
    (List.length (flows d2.Epoch_data.combined));
  List.iter2
    (fun (a : Flow.t) (b : Flow.t) ->
      Alcotest.(check int) "same addr" a.Flow.addr b.Flow.addr;
      Alcotest.(check (float 1e-9)) "same volume" a.Flow.volume b.Flow.volume)
    (flows d1.Epoch_data.combined)
    (flows d2.Epoch_data.combined)

(* ---- Generator against the list-based oracle ---- *)

module Reference_generator = Reference_generator

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* What the list-based generator's epoch amounted to: each switch's flows
   ascending (its list reversed) in the boxed store with the old sortedness
   flag, and the boxed left-fold merge of the switches in id order, which
   is one switch's own view when only one saw traffic. *)
let expected_views groups =
  let per_switch =
    List.fold_left
      (fun acc (sw, flows) ->
        let flows = List.rev flows in
        Switch_id.Map.add sw (Reference_store.of_flows flows, Flow.sorted_distinct flows) acc)
      Switch_id.Map.empty groups
  in
  let views = List.map snd (Switch_id.Map.bindings per_switch) in
  let combined =
    match List.filter (fun (r, _) -> Reference_store.num_addresses r > 0) views with
    | [ one ] -> one
    | _ -> (Reference_store.merge_all (List.map fst views), true)
  in
  (per_switch, combined)

(* Bitwise: entries, flag, and the cumulative sums as every address's
   own volume and the volumes of its /24 and /16 read them. *)
let same_view agg ((r : Reference_store.t), flag) =
  let n = Reference_store.num_addresses r in
  let entries = List.rev (Aggregate.fold agg ~init:[] ~f:(fun acc f -> f :: acc)) in
  Aggregate.sorted_fast_path agg = flag
  && Aggregate.num_addresses agg = n
  && List.for_all2
       (fun (f : Flow.t) (g : Flow.t) -> f.Flow.addr = g.Flow.addr && same_float f.Flow.volume g.Flow.volume)
       entries (Reference_store.to_flows r)
  && same_float (Aggregate.total agg) (Reference_store.total r)
  && List.for_all
       (fun (f : Flow.t) ->
         List.for_all
           (fun length ->
             let q = Prefix.make ~bits:f.Flow.addr ~length in
             same_float (Aggregate.volume agg q) (Reference_store.volume r q))
           [ 32; 24; 16 ])
       entries

let same_epoch (data : Epoch_data.t) (epoch, groups) =
  let per_switch, combined = expected_views groups in
  data.Epoch_data.epoch = epoch
  && List.map fst (Switch_id.Map.bindings data.Epoch_data.per_switch)
     = List.map fst (Switch_id.Map.bindings per_switch)
  && Switch_id.Map.for_all
       (fun sw agg -> same_view agg (Switch_id.Map.find sw per_switch))
       data.Epoch_data.per_switch
  && same_view data.Epoch_data.combined combined

(* Random profiles: churn, phases that grow and shrink the heavy
   population, jitter and switch skew on and off, and a /30 filter whose
   sub-filters hold one to four addresses, so [pick_address] runs out of
   retries and duplicate addresses reach the combine path. *)
let gen_oracle_case =
  QCheck.Gen.(
    let* seed = int_bound 100_000 in
    let* tiny = bool in
    let* log_k = int_range 0 2 in
    let* heavy_count = int_range 0 12 in
    let* medium_count = int_range 0 12 in
    let* small_count = int_range 0 40 in
    let* churn = oneofl [ 0.0; 0.05; 0.5 ] in
    let* jitter = oneofl [ 0.0; 0.1 ] in
    let* switch_skew = oneofl [ 0.0; 1.2 ] in
    let* phases =
      oneofl
        [
          [];
          [
            { Profile.start_epoch = 0; heavy_scale = 1.0 };
            { Profile.start_epoch = 3; heavy_scale = 2.0 };
            { Profile.start_epoch = 6; heavy_scale = 0.0 };
            { Profile.start_epoch = 8; heavy_scale = 1.5 };
          ];
        ]
    in
    let profile =
      {
        Profile.threshold = 8.0;
        heavy_count;
        medium_count;
        small_count;
        heavy_alpha = 1.25;
        churn;
        jitter;
        phases;
        switch_skew;
      }
    in
    return (seed, (if tiny then "10.0.0.0/30" else "10.16.0.0/12"), 1 lsl log_k, profile))

let oracle_pair (seed, filter, switches_per_task, profile) =
  let topology =
    Topology.create (Rng.create seed) ~filter:(p filter) ~num_switches:8 ~switches_per_task
  in
  ( Generator.create (Rng.create (seed + 1)) ~topology ~profile,
    Reference_generator.create (Rng.create (seed + 1)) ~topology ~profile )

let prop_generator_matches_oracle =
  QCheck.Test.make ~name:"generator = list-based oracle, bitwise" ~count:200
    (QCheck.make gen_oracle_case) (fun case ->
      let g, r = oracle_pair case in
      List.for_all (fun _ -> same_epoch (Generator.next g) (Reference_generator.next r)) (List.init 12 Fun.id))

(* A checkpoint taken mid-run writes the oracle's bytes, and the parsed
   generator goes on with the oracle's epochs. *)
let prop_generator_round_trip =
  QCheck.Test.make ~name:"generator emit/parse mid-run = oracle" ~count:50
    (QCheck.make gen_oracle_case) (fun case ->
      let module C = Dream_util.Codec in
      let g, r = oracle_pair case in
      for _ = 1 to 5 do
        ignore (Generator.next g);
        ignore (Reference_generator.next r)
      done;
      let doc = C.encode Generator.codec g in
      let g' = C.decode Generator.codec doc in
      String.equal doc (Reference_generator.emit r)
      && List.for_all
           (fun _ -> same_epoch (Generator.next g') (Reference_generator.next r))
           (List.init 7 Fun.id))

(* A tiny filter really does send duplicate addresses to one switch. *)
let test_generator_duplicates_combine () =
  let g, _ =
    oracle_pair (3, "10.0.0.0/30", 2, { (Profile.default ~threshold:8.0) with Profile.jitter = 0.0 })
  in
  let data = Generator.next g in
  Alcotest.(check bool) "a switch combined duplicates" true
    (Switch_id.Map.exists (fun _ a -> not (Aggregate.sorted_fast_path a)) data.Epoch_data.per_switch);
  Alcotest.(check int) "all four addresses" 4 (Aggregate.num_addresses data.Epoch_data.combined)

(* ---- Trace_io / Source ---- *)

module Trace_io = Dream_traffic.Trace_io
module Source = Dream_traffic.Source
module Epoch_data_m = Dream_traffic.Epoch_data

let roundtrip_epochs () =
  let g = mk_generator () in
  Trace_io.record g ~epochs:5

let test_trace_roundtrip () =
  let epochs = roundtrip_epochs () in
  let path = Filename.temp_file "dream_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save_file path epochs;
      match Trace_io.load_file path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
        Alcotest.(check int) "same epoch count" (List.length epochs) (List.length loaded);
        List.iter2
          (fun (a : Epoch_data_m.t) (b : Epoch_data_m.t) ->
            Alcotest.(check int) "epoch index" a.Epoch_data_m.epoch b.Epoch_data_m.epoch;
            Alcotest.(check (float 1e-3)) "total volume"
              (Aggregate.total a.Epoch_data_m.combined)
              (Aggregate.total b.Epoch_data_m.combined);
            Alcotest.(check int) "flow count"
              (Aggregate.num_addresses a.Epoch_data_m.combined)
              (Aggregate.num_addresses b.Epoch_data_m.combined))
          epochs loaded)

let read_of_string s =
  let path = Filename.temp_file "dream_trace_in" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let out = open_out path in
      output_string out s;
      close_out out;
      Trace_io.load_file path)

let test_trace_read_simple () =
  match read_of_string "# c\n0 0 10.0.0.1 2.5\n0 1 10.0.0.2 1.0\n2 0 10.0.0.1 3.0\n" with
  | Error msg -> Alcotest.fail msg
  | Ok [ e0; e2 ] ->
    Alcotest.(check int) "first epoch" 0 e0.Epoch_data_m.epoch;
    Alcotest.(check int) "second epoch" 2 e2.Epoch_data_m.epoch;
    Alcotest.(check (float 1e-9)) "epoch 0 volume" 3.5 (Aggregate.total e0.Epoch_data_m.combined);
    Alcotest.(check (float 1e-9)) "epoch 2 volume" 3.0 (Aggregate.total e2.Epoch_data_m.combined)
  | Ok _ -> Alcotest.fail "expected two epochs"

let test_trace_read_errors () =
  List.iter
    (fun body ->
      match read_of_string body with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed trace: " ^ String.escaped body))
    [ "0 0 10.0.0.1\n"; "0 0 999.0.0.1 1.0\n"; "3 0 10.0.0.1 1.0\n1 0 10.0.0.1 1.0\n";
      "0 0 10.0.0.1 -5.0\n"; "0 0 10.0.0.1 nan\n"; "0 0 10.0.0.1 inf\n";
      "0 0 10.0.0.1 -inf\n" ]

let test_source_generator () =
  let s = Source.of_generator (mk_generator ()) in
  let a = Source.next s and b = Source.next s in
  Alcotest.(check int) "epochs count up" (a.Epoch_data_m.epoch + 1) b.Epoch_data_m.epoch

let test_source_replay_cycles () =
  let epochs = Array.of_list (roundtrip_epochs ()) in
  let s = Source.replay epochs in
  let first = Source.next s in
  for _ = 1 to Array.length epochs - 1 do
    ignore (Source.next s)
  done;
  let wrapped = Source.next s in
  Alcotest.(check (float 1e-9)) "wraps to the first epoch's traffic"
    (Aggregate.total first.Epoch_data_m.combined)
    (Aggregate.total wrapped.Epoch_data_m.combined);
  Alcotest.(check int) "epoch counter keeps rising" (Array.length epochs)
    wrapped.Epoch_data_m.epoch

let test_source_replay_no_cycle_goes_quiet () =
  let epochs = Array.of_list (roundtrip_epochs ()) in
  let s = Source.replay ~cycle:false epochs in
  for _ = 1 to Array.length epochs do
    ignore (Source.next s)
  done;
  let after = Source.next s in
  Alcotest.(check (float 1e-9)) "empty after the trace" 0.0
    (Aggregate.total after.Epoch_data_m.combined)

(* A checkpointed replay source holds 32-bit addresses: one out of range
   is refused as a parse error, not an exception from the aggregate
   build. *)
let test_source_parse_refuses_bad_address () =
  let module C = Dream_util.Codec in
  let doc = C.encode Source.codec (Source.replay (Array.of_list (roundtrip_epochs ()))) in
  let first = ref true in
  let tampered =
    String.split_on_char '\n' doc
    |> List.map (fun l ->
           if !first && String.length l > 5 && String.sub l 0 5 = "addr " then begin
             first := false;
             "addr -5"
           end
           else l)
    |> String.concat "\n"
  in
  ignore (C.decode Source.codec doc);
  Alcotest.(check bool) "negative address refused" true
    (match C.decode Source.codec tampered with
    | _ -> false
    | exception C.Parse_error _ -> true)

let test_source_replay_empty () =
  Alcotest.check_raises "empty trace" (Invalid_argument "Source.replay: empty trace") (fun () ->
      ignore (Source.replay [||]))

let () =
  Alcotest.run "dream.traffic"
    [
      ("flow", [ Alcotest.test_case "combine" `Quick test_flow_combine ]);
      ( "aggregate",
        [
          Alcotest.test_case "prefix volumes" `Quick test_aggregate_volume;
          Alcotest.test_case "counts" `Quick test_aggregate_counts;
          Alcotest.test_case "flows_in" `Quick test_aggregate_flows_in;
          Alcotest.test_case "merge" `Quick test_aggregate_merge;
          Alcotest.test_case "empty" `Quick test_aggregate_empty;
          QCheck_alcotest.to_alcotest prop_aggregate_volume_model;
          QCheck_alcotest.to_alcotest prop_aggregate_children_sum;
        ] );
      ( "topology",
        [
          Alcotest.test_case "subfilters" `Quick test_topology_subfilters;
          Alcotest.test_case "switch_set" `Quick test_topology_switch_set;
          Alcotest.test_case "switch_of_address" `Quick test_topology_switch_of_address;
          Alcotest.test_case "address consistent with set" `Quick
            test_topology_address_consistent_with_set;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "prefix_mask matches switch_set" `Quick test_topology_prefix_mask;
          QCheck_alcotest.to_alcotest prop_switch_mask_matches_set;
          QCheck_alcotest.to_alcotest prop_bits_mask_matches_loop;
          Alcotest.test_case "parse checks sub-filter count" `Quick
            test_topology_parse_checks_subfilters;
        ] );
      ( "profile",
        [
          Alcotest.test_case "default valid" `Quick test_profile_default_valid;
          Alcotest.test_case "invalid configs rejected" `Quick test_profile_invalid;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "read simple" `Quick test_trace_read_simple;
          Alcotest.test_case "read errors" `Quick test_trace_read_errors;
        ] );
      ( "source",
        [
          Alcotest.test_case "generator wrapper" `Quick test_source_generator;
          Alcotest.test_case "replay cycles" `Quick test_source_replay_cycles;
          Alcotest.test_case "replay uncycled goes quiet" `Quick
            test_source_replay_no_cycle_goes_quiet;
          Alcotest.test_case "replay empty rejected" `Quick test_source_replay_empty;
          Alcotest.test_case "parse refuses an out-of-range address" `Quick
            test_source_parse_refuses_bad_address;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "heavy calibration" `Quick test_generator_heavy_calibration;
          Alcotest.test_case "flows within filter" `Quick test_generator_within_filter;
          Alcotest.test_case "phases scale population" `Quick test_generator_phases_scale_population;
          Alcotest.test_case "per-switch split" `Quick test_generator_per_switch_split;
          Alcotest.test_case "steady profile repeats" `Quick test_generator_steady_no_churn;
          Alcotest.test_case "duplicate addresses combine" `Quick test_generator_duplicates_combine;
          QCheck_alcotest.to_alcotest prop_generator_matches_oracle;
          QCheck_alcotest.to_alcotest prop_generator_round_trip;
        ] );
    ]
