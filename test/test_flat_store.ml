(* Differential suite for the flat counter store: every Aggregate query
   must be BIT-identical (Int64.bits_of_float, not epsilon) to the boxed
   reference store in Reference_store, on adversarial inputs — duplicate
   addresses, adjacent prefixes, full- and zero-length prefixes, empty
   epochs, merges and batched reads. *)

module Rng = Dream_util.Rng
module Prefix = Prefix_ops
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Reference = Reference_store
module Topology = Dream_traffic.Topology
module Profile = Dream_traffic.Profile
module Generator = Dream_traffic.Generator
module Epoch_data = Dream_traffic.Epoch_data
module Switch_id = Dream_traffic.Switch_id

let p = Prefix.of_string

let flow addr volume = Flow.make ~addr ~volume

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

(* All flows an aggregate holds, in iteration order. *)
let dump a = List.rev (Aggregate.fold a ~init:[] ~f:(fun acc f -> f :: acc))

let dump_reference r = List.rev (Reference.fold r ~init:[] ~f:(fun acc f -> f :: acc))

let same_flows la lb =
  List.length la = List.length lb
  && List.for_all2
       (fun (a : Flow.t) (b : Flow.t) ->
         a.Flow.addr = b.Flow.addr && same_float a.Flow.volume b.Flow.volume)
       la lb

(* ---- generators ---- *)

(* Clustered addresses: a handful of hot bases plus nearby offsets, so
   duplicate addresses and adjacent prefixes actually occur. *)
let gen_addr =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> a land 0xFFFF) (int_bound 0xFFFF);
        map (fun off -> 0x0A00 + (off land 0xF)) (int_bound 0xF);
        return 0;
        return 0xFFFF;
      ])

(* Volumes drawn from sums of thirds: float addition over them is
   non-associative, so any reordering between backends shows up bitwise. *)
let gen_volume = QCheck.Gen.(map (fun v -> float_of_int (v + 1) /. 3.0) (int_bound 1000))

let gen_flows = QCheck.Gen.(list_size (int_range 0 80) (map2 flow gen_addr gen_volume))

let gen_prefix =
  QCheck.Gen.(
    int_range 16 32 >>= fun length ->
    map (fun b -> Prefix.make ~bits:(b land 0xFFFF) ~length) (int_bound 0xFFFF))

let gen_prefixes = QCheck.Gen.(list_size (int_range 0 24) gen_prefix)

(* ---- properties ---- *)

let prop_build_queries =
  QCheck.Test.make ~name:"flat vs reference: volume/count/total bitwise" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_flows gen_prefix))
    (fun (flows, q) ->
      let ra = Reference.of_flows flows and fa = Aggregate.of_flows flows in
      same_float (Reference.volume ra q) (Aggregate.volume fa q)
      && same_float (Reference.total ra) (Aggregate.total fa)
      && Reference.num_addresses ra = Aggregate.num_addresses fa
      && same_flows (dump_reference ra) (dump fa))

let prop_read_prefixes =
  QCheck.Test.make ~name:"flat vs reference: batched reads bitwise" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_flows gen_prefixes))
    (fun (flows, rules) ->
      (* Both TCAM order (sorted, the monotonic-lo fast path) and an
         arbitrary order must agree element-wise. *)
      let sorted_rules = List.sort Prefix.compare rules in
      let ra = Reference.of_flows flows and fa = Aggregate.of_flows flows in
      let same rules =
        let rr = Reference.read_prefixes ra rules in
        let keys = Array.of_list (List.map Prefix.key rules) in
        let n = Array.length keys in
        let vols = Array.make n nan in
        Aggregate.read_keys fa ~keys ~n vols;
        List.for_all2 (fun (_, va) vb -> same_float va vb) rr (Array.to_list vols)
      in
      same sorted_rules && same rules)

(* ---- cursor reads against the two-search oracle ---- *)

let top = (1 lsl Prefix.address_bits) - 1

(* Addresses over the whole space, clustered so that pieces of a
   partition hold several: at and near 0, at and near the top, around one
   base, and anywhere. *)
let gen_wide_addr =
  QCheck.Gen.(
    oneof
      [
        int_bound 0xFF;
        map (fun off -> top - off) (int_bound 0xFF);
        map (fun off -> 0x0A000000 + off) (int_bound 0xFFF);
        map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF);
      ])

(* An empty aggregate, a single address, both ends of the space, or a
   clustered spread. *)
let gen_wide_flows =
  QCheck.Gen.(
    frequency
      [
        (1, return []);
        (1, map2 (fun addr v -> [ flow addr v ]) gen_wide_addr gen_volume);
        ( 1,
          map3
            (fun v0 v1 rest -> flow 0 v0 :: flow top v1 :: rest)
            gen_volume gen_volume
            (list_size (int_range 0 20) (map2 flow gen_wide_addr gen_volume)) );
        (4, list_size (int_range 1 120) (map2 flow gen_wide_addr gen_volume));
      ])

(* A partition of the address space in key order, refined toward each
   target address in turn: the piece holding it splits in two. *)
let partition targets =
  List.fold_left
    (fun pieces addr ->
      List.concat_map
        (fun q ->
          match Prefix.children q with
          | Some (l, r) when Prefix.covers q (Prefix.of_address addr) -> [ l; r ]
          | Some _ | None -> [ q ])
        pieces)
    [ Prefix.root ] targets

(* The four shapes of a key batch: a partition in key order (each range
   starts where the last ended), the same with gaps, with enclosing
   prefixes and the last address of some pieces mixed in (nested: a range
   starting inside the one before, at its first or last address), and all
   of that in no order. *)
let batches rng pieces =
  let gapped = List.filter (fun _ -> Rng.int rng 2 = 0) pieces in
  let nested =
    List.sort_uniq Prefix.compare
      (pieces
      @ List.concat_map
          (fun q ->
            match Rng.int rng 4 with
            | 0 -> [ Prefix.ancestor_at q (Rng.int rng (Prefix.length q + 1)) ]
            | 1 -> [ Prefix.of_address (Prefix.last_address q) ]
            | _ -> [])
          pieces)
  in
  let unordered = Array.of_list nested in
  Rng.shuffle rng unordered;
  [
    ("sorted-adjacent", pieces);
    ("sorted-gapped", gapped);
    ("nested", nested);
    ("unordered", Array.to_list unordered);
  ]

let cursor_agrees a prefixes =
  let keys = Array.of_list (List.map Prefix.key prefixes) in
  let n = Array.length keys in
  let got = Array.make n nan and want = Array.make n nan in
  Aggregate.read_keys a ~keys ~n got;
  Reference_search.read_keys a ~keys ~n want;
  Array.for_all2 same_float got want

let prop_cursor_reads =
  QCheck.Test.make ~name:"cursor read_keys = two-search oracle, bitwise" ~count:400
    (QCheck.make QCheck.Gen.(triple gen_wide_flows (list_size (int_range 0 80) gen_wide_addr) int))
    (fun (flows, targets, seed) ->
      let a = Aggregate.of_flows flows and rng = Rng.create seed in
      List.for_all
        (fun (shape, prefixes) ->
          cursor_agrees a prefixes || QCheck.Test.fail_reportf "%s batch differs" shape)
        (batches rng (partition targets)))

(* Every shape of batch on the aggregates at the edges: none, one
   address, and the first and last address of the space. *)
let test_cursor_edges () =
  let rng = Rng.create 7 in
  List.iter
    (fun (name, flows) ->
      let a = Aggregate.of_flows flows in
      let pieces = partition (List.map (fun (f : Flow.t) -> f.Flow.addr) (flows @ flows @ flows)) in
      List.iter
        (fun (shape, prefixes) ->
          Alcotest.(check bool) (Printf.sprintf "%s, %s batch" name shape) true (cursor_agrees a prefixes))
        (("whole space", [ Prefix.root; Prefix.of_address 0; Prefix.of_address top ])
        :: ("last address inside", [ Prefix.root; Prefix.of_address top ])
        :: batches rng pieces))
    [
      ("empty", []);
      ("single address", [ flow 0x0A000001 0.25 ]);
      ("both ends", [ flow 0 (1.0 /. 3.0); flow top (2.0 /. 3.0) ]);
      ("ends and middle", [ flow 0 0.1; flow 1 0.2; flow 0x80000000 0.3; flow (top - 1) 0.4; flow top 0.5 ]);
    ]

(* The network-wide view of an epoch is the lib's only merge: switches
   listed in id order, shared addresses summed in that order.
   [Epoch_data.of_flows] takes each switch's flows newest first, so the
   lists go in reversed to arrive in the order given here. *)
let combined groups =
  (Epoch_data.of_flows ~epoch:0 (List.map (fun (sw, flows) -> (sw, List.rev flows)) groups))
    .Epoch_data.combined

let prop_merge =
  QCheck.Test.make ~name:"flat vs reference: merge bitwise" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_flows gen_flows))
    (fun (fl1, fl2) ->
      let rm = Reference.merge (Reference.of_flows fl1) (Reference.of_flows fl2) in
      let fm = combined [ (0, fl1); (1, fl2) ] in
      same_flows (dump_reference rm) (dump fm)
      && same_float (Reference.total rm) (Aggregate.total fm))

let prop_merge_all =
  QCheck.Test.make ~name:"flat vs reference: merge_all bitwise" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 6) gen_flows))
    (fun flow_lists ->
      let rm = Reference.merge_all (List.map Reference.of_flows flow_lists) in
      let fm = combined (List.mapi (fun sw flows -> (sw, flows)) flow_lists) in
      same_flows (dump_reference rm) (dump fm)
      && same_float (Reference.total rm) (Aggregate.total fm))

let prop_flows_in =
  QCheck.Test.make ~name:"flat vs reference: flows_in order" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_flows gen_prefix))
    (fun (flows, q) ->
      let ra = Reference.of_flows flows and fa = Aggregate.of_flows flows in
      same_flows (Reference.flows_in ra q) (Aggregate.flows_in fa q))

(* ---- directed edge cases ---- *)

let check_identical flows queries =
  let ra = Reference.of_flows flows and fa = Aggregate.of_flows flows in
  Alcotest.(check bool) "flows identical" true (same_flows (dump_reference ra) (dump fa));
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "volume at %s" (Prefix.to_string q))
        true
        (same_float (Reference.volume ra q) (Aggregate.volume fa q)))
    queries;
  fa

let test_empty_epoch () =
  let fe = check_identical [] [ Prefix.root; p "10.0.0.0/8"; p "10.0.0.1/32" ] in
  Alcotest.(check int) "empty count" 0 (Aggregate.num_addresses fe);
  Alcotest.(check bool) "empty merge" true (same_flows [] (dump (combined [ (0, []); (1, []) ])));
  Alcotest.(check bool) "empty merge_all" true (same_flows [] (dump (combined [])))

let test_duplicates () =
  (* Duplicate addresses force the combine path: sums must still agree
     bitwise because both stores add volumes left to right. *)
  let flows = [ flow 7 0.1; flow 7 0.2; flow 7 0.4; flow 3 1.0; flow 3 (1.0 /. 3.0) ] in
  let a = check_identical flows [ Prefix.root; Prefix.of_address 7; Prefix.of_address 3 ] in
  Alcotest.(check bool) "duplicates leave the fast path" false (Aggregate.sorted_fast_path a)

let test_adjacent_prefixes () =
  let flows = [ flow 0x0A00 1.5; flow 0x0A01 2.5; flow 0x0A02 0.25; flow 0x0A03 4.0 ] in
  ignore
    (check_identical flows
       [
         Prefix.make ~bits:0x0A00 ~length:31;
         Prefix.make ~bits:0x0A02 ~length:31;
         Prefix.make ~bits:0x0A00 ~length:30;
       ])

let test_extreme_lengths () =
  let flows = [ flow 0 1.0; flow 0xFFFF 2.0; flow 0x8000 4.0 ] in
  (* Zero-length (the whole space) and full-length (single address). *)
  ignore
    (check_identical flows
       [ Prefix.root; Prefix.of_address 0; Prefix.of_address 0xFFFF; Prefix.of_address 0x8000 ])

(* ---- cumulative-sum internals ---- *)

let test_flat_store_cumulative () =
  let flows = [ flow 1 0.25; flow 4 0.5; flow 9 (1.0 /. 3.0); flow 12 2.0 ] in
  let a = Aggregate.of_flows flows in
  Alcotest.(check bool) "sorted input takes the fast path" true (Aggregate.sorted_fast_path a);
  (* Prefix queries agree with a manual walk over the sorted flows: the
     /28 covers all four addresses, the /29 the first two. *)
  let sum fs = List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.volume) 0.0 fs in
  Alcotest.(check bool) "/28 covers all" true
    (same_flows flows (Aggregate.flows_in a (p "0.0.0.0/28")));
  Alcotest.(check bool) "/29 is the low pair" true
    (same_flows [ flow 1 0.25; flow 4 0.5 ] (Aggregate.flows_in a (p "0.0.0.0/29")));
  Alcotest.(check bool) "/29 volume bitwise" true
    (same_float (0.25 +. 0.5) (Aggregate.volume a (p "0.0.0.0/29")));
  Alcotest.(check bool) "total bitwise" true (same_float (sum flows) (Aggregate.total a))

(* ---- sortedness fast path ---- *)

let test_generator_hits_fast_path () =
  (* The generator emits per-switch flows already sorted and distinct; the
     aggregate build must take the no-sort fast path, not re-run combine. *)
  let rng = Rng.create 42 in
  let topology =
    Topology.create (Rng.split rng) ~filter:(p "10.16.0.0/12") ~num_switches:4
      ~switches_per_task:4
  in
  let gen = Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0) in
  for epoch = 0 to 4 do
    let data = Generator.next gen in
    Switch_id.Map.iter
      (fun sw agg ->
        Alcotest.(check bool)
          (Printf.sprintf "epoch %d switch %d on the fast path" epoch sw)
          true (Aggregate.sorted_fast_path agg))
      data.Epoch_data.per_switch;
    (* And the data is actually non-trivial, or the assertion is vacuous. *)
    let total =
      Switch_id.Map.fold
        (fun _ agg acc -> acc +. Aggregate.total agg)
        data.Epoch_data.per_switch 0.0
    in
    Alcotest.(check bool) (Printf.sprintf "epoch %d carries traffic" epoch) true (total > 0.0)
  done

let () =
  Alcotest.run "dream.flat_store"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_build_queries;
          QCheck_alcotest.to_alcotest prop_read_prefixes;
          QCheck_alcotest.to_alcotest prop_merge;
          QCheck_alcotest.to_alcotest prop_merge_all;
          QCheck_alcotest.to_alcotest prop_flows_in;
          Fixtures.seeded_qcheck prop_cursor_reads;
          Alcotest.test_case "cursor reads at the edges" `Quick test_cursor_edges;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty epoch" `Quick test_empty_epoch;
          Alcotest.test_case "duplicate addresses" `Quick test_duplicates;
          Alcotest.test_case "adjacent prefixes" `Quick test_adjacent_prefixes;
          Alcotest.test_case "zero- and full-length prefixes" `Quick test_extreme_lengths;
          Alcotest.test_case "cumulative sums" `Quick test_flat_store_cumulative;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "generator output skips the sort" `Quick
            test_generator_hits_fast_path;
        ] );
    ]
