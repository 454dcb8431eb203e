(* Tests for dream.util: RNG determinism and distributions, EWMA, stats,
   heap — including qcheck properties on the heap and percentiles. *)

module Rng = Dream_util.Rng
module Codec = Dream_util.Codec
module Ewma = Reference_ewma
module Stats = Dream_util.Stats
module Heap = Reference_heap
module Timeseries = Dream_util.Timeseries

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42 and b = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0, 17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.0 in
    Alcotest.(check bool) "in [0, 3)" true (v >= 0.0 && v < 3.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let equal = ref true in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 parent) (Rng.bits64 child)) then equal := false
  done;
  Alcotest.(check bool) "split diverges from parent" false !equal

let test_rng_copy_preserves () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Codec.decode (Rng.codec "s") (Codec.encode (Rng.codec "s") a) in
  Alcotest.(check int64) "read-back copy draws the same next value" (Rng.bits64 a) (Rng.bits64 b)

(* Known answers: the md5 of the first 1,000 [bits64] outputs (16 hex
   digits and a newline each), the first output and the state after the
   1,000 draws, for three seeds, pinned from the record-of-int64 xoshiro
   this module used before its state moved into one buffer. *)
let rng_known_answers =
  [
    ( 0,
      "e9c4b7b04c5f98ca012dca2fec766ad8",
      0x99ec5f36cb75f2b4L,
      (0x7314d8d638e5a5c1L, 0x942f7e8d2faa3d57L, 0xd2b734f107606cedL, 0x5f16eb1bb2c41f34L) );
    ( 7,
      "c405b1bd7549a34477343b9a52d5d70b",
      0xb358faf74ef9765aL,
      (0xefd48c5cfdf75c2bL, 0x208a91c19febe82bL, 0xceb895b78d3dd28bL, 0x5275c8a7f7d78094L) );
    ( 0x5eed,
      "d0a34602133a67eacf7bb9c07db43101",
      0xef33f17055244b74L,
      (0x436cfb5adfcf31f2L, 0x1db5c86ec4f67e26L, 0x65fa159278003c8aL, 0x437ef2cad4692017L) );
  ]

(* A generator's state, as its checkpoint lines. *)
let rng_text rng = Codec.encode (Rng.codec "s") rng

let test_rng_known_answers () =
  List.iter
    (fun (seed, md5, first, state) ->
      let rng = Rng.create seed in
      let b = Buffer.create 17_000 in
      for _ = 1 to 1000 do
        Buffer.add_string b (Printf.sprintf "%016Lx\n" (Rng.bits64 rng))
      done;
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check string) (name "md5 of 1,000 outputs") md5
        (Digest.to_hex (Digest.string (Buffer.contents b)));
      Alcotest.(check int64) (name "first output") first (Rng.bits64 (Rng.create seed));
      let e0, e1, e2, e3 = state in
      Alcotest.(check string) (name "state after 1,000 draws")
        (Printf.sprintf "s0 %Ld\ns1 %Ld\ns2 %Ld\ns3 %Ld\n" e0 e1 e2 e3)
        (rng_text rng))
    rng_known_answers

let test_rng_state_round_trip () =
  let rng = Rng.create 99 in
  for _ = 1 to 17 do
    ignore (Rng.bits64 rng)
  done;
  let restored = Codec.decode (Rng.codec "s") (rng_text rng) in
  Alcotest.(check string) "state read back" (rng_text rng) (rng_text restored);
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream after restore" (Rng.bits64 rng) (Rng.bits64 restored)
  done;
  (* The restored generator owns its state: drawing from it leaves the
     original alone. *)
  let before = rng_text rng in
  ignore (Rng.bits64 restored);
  Alcotest.(check string) "independent state" before (rng_text rng)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.3)

let test_rng_pareto_min () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above xmin" true (Rng.pareto rng ~alpha:1.5 ~xmin:2.0 >= 2.0)
  done

let test_rng_zipf_range () =
  let rng = Rng.create 19 in
  for _ = 1 to 1000 do
    let v = Rng.zipf rng ~n:10 ~s:1.1 in
    Alcotest.(check bool) "rank in [1, 10]" true (v >= 1 && v <= 10)
  done

let test_rng_zipf_skew () =
  let rng = Rng.create 23 in
  let counts = Array.make 11 0 in
  for _ = 1 to 10000 do
    let v = Rng.zipf rng ~n:10 ~s:1.2 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 8" true (counts.(2) > counts.(8))

(* The Box-Muller draw of the reference fault loop, which the
   [thin_jitter] differential holds the library to bit for bit. *)
let test_rng_gaussian_moments () =
  let rng = Rng.create 29 in
  let n = 50000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Reference_fault.gaussian rng in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Rng.create 37 in
  for _ = 1 to 100 do
    let v = Rng.pick rng [| 1; 2; 3 |] in
    Alcotest.(check bool) "element of array" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* ---- Ewma ---- *)

let test_ewma_first_sample () =
  let f = Ewma.create ~history:0.4 in
  check_float "first sample initialises" 3.0 (Ewma.update f 3.0)

let test_ewma_blend () =
  let f = Ewma.create ~history:0.4 in
  ignore (Ewma.update f 10.0);
  check_float "0.4*10 + 0.6*0" 4.0 (Ewma.update f 0.0)

let test_ewma_empty_value () =
  let f = Ewma.create ~history:0.5 in
  Alcotest.(check bool) "empty" true (Ewma.value f = None);
  check_float "default" 7.0 (Ewma.value_or f 7.0)

let test_ewma_scale_seed () =
  let f = Ewma.create ~history:0.5 in
  ignore (Ewma.update f 8.0);
  Ewma.scale f 0.5;
  check_float "scaled" 4.0 (Ewma.value_or f 0.0);
  let f = Ewma.restore ~history:0.5 ~avg:(Some 2.5) in
  check_float "seeded" 2.5 (Ewma.value_or f 0.0)

let test_ewma_invalid_history () =
  Alcotest.check_raises "history 1.0" (Invalid_argument "Ewma.create: history must be in [0, 1)")
    (fun () -> ignore (Ewma.create ~history:1.0))

let test_ewma_convergence () =
  let f = Ewma.create ~history:0.8 in
  for _ = 1 to 200 do
    ignore (Ewma.update f 42.0)
  done;
  Alcotest.(check bool) "converges to constant input" true
    (Float.abs (Ewma.value_or f 0.0 -. 42.0) < 1e-6)

(* A checkpointed filter holds its average alone: it parses back to a
   filter with the same value and the same future. *)
let test_ewma_codec_roundtrip () =
  let module C = Dream_util.Codec in
  let codec = Ewma.codec ~history:0.4 in
  let f = Ewma.create ~history:0.4 in
  let empty = C.decode codec (C.encode codec f) in
  Alcotest.(check bool) "empty stays empty" true (Ewma.value empty = None);
  ignore (Ewma.update f 3.0);
  let g = C.decode codec (C.encode codec f) in
  check_float "same value" 3.0 (Ewma.value_or g 0.0);
  check_float "same next average" (Ewma.update f 8.0) (Ewma.update g 8.0)

(* ---- Stats ---- *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean [])

let test_stats_stddev () =
  check_float "constant stddev" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "known stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p50" 3.0 (Stats.percentile 50.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p25 interpolates" 2.0 (Stats.percentile 25.0 xs)

let test_stats_percentile_degenerate () =
  (* Total over the sample: tiny samples answer instead of raising. *)
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile 50.0 []));
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (Stats.median []));
  check_float "singleton p0" 7.0 (Stats.percentile 0.0 [ 7.0 ]);
  check_float "singleton p50" 7.0 (Stats.percentile 50.0 [ 7.0 ]);
  check_float "singleton p100" 7.0 (Stats.percentile 100.0 [ 7.0 ]);
  check_float "two elements p50" 1.5 (Stats.percentile 50.0 [ 1.0; 2.0 ]);
  check_float "two elements p25" 1.25 (Stats.percentile 25.0 [ 2.0; 1.0 ])

let test_stats_percentile_errors () =
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile 101.0 [ 1.0 ]));
  Alcotest.check_raises "out of range on empty" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile (-1.0) []))

(* ---- Heap ---- *)

let test_heap_pop_order () =
  let h = Heap.of_list ~cmp:Int.compare [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "descending" [ 9; 6; 5; 4; 3; 2; 1; 1 ] (drain [])

let test_heap_peek () =
  let h = Heap.of_list ~cmp:Int.compare [ 2; 7; 5 ] in
  Alcotest.(check (option int)) "peek max" (Some 7) (Heap.peek h);
  Alcotest.(check int) "peek preserves" 3 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap drains in descending order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:Int.compare xs in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort (fun a b -> Int.compare b a) xs)

let heap_length_prop =
  QCheck.Test.make ~name:"heap length tracks pushes" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      Heap.length h = List.length xs)

let percentile_bounds_prop =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0)) (int_range 0 100))
    (fun (xs, p) ->
      let v = Stats.percentile (float_of_int p) xs in
      v >= List.fold_left Float.min infinity xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

(* ---- Timeseries ---- *)

let test_ts_binned () =
  let points = Timeseries.binned [ (0, 1.0); (1, 3.0); (10, 5.0); (12, 7.0) ] ~bin:10 in
  match points with
  | [ a; b ] ->
    Alcotest.(check int) "first bucket" 0 a.Timeseries.epoch;
    check_float "first mean" 2.0 a.Timeseries.value;
    Alcotest.(check int) "second bucket" 10 b.Timeseries.epoch;
    check_float "second mean" 6.0 b.Timeseries.value
  | _ -> Alcotest.fail "expected two buckets"

let test_ts_binned_invalid () =
  Alcotest.check_raises "bin 0" (Invalid_argument "Timeseries.binned: bin must be positive")
    (fun () -> ignore (Timeseries.binned [] ~bin:0))

(* The sparkline [pp_series] draws: the glyphs between the 16-column name
   and the two spaces before "min". *)
let sparkline values =
  let line =
    Format.asprintf "%a"
      (Timeseries.pp_series ~name:"s")
      (List.mapi (fun epoch value -> { Timeseries.epoch; value }) values)
  in
  let stop = ref 17 in
  while String.sub line !stop 5 <> "  min" do
    incr stop
  done;
  String.sub line 17 (!stop - 17)

let test_ts_sparkline () =
  Alcotest.(check string) "empty" "s                (no data)"
    (Format.asprintf "%a" (Timeseries.pp_series ~name:"s") []);
  let s = sparkline [ 0.0; 1.0 ] in
  (* Two glyphs of three bytes each. *)
  Alcotest.(check int) "two glyphs" 6 (String.length s);
  let flat = sparkline [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check int) "flat series renders" 9 (String.length flat)

let test_ts_sparkline_scaling () =
  (* The glyphs for the series' minimum and maximum are the extremes. *)
  let s = sparkline [ 0.0; 1.0 ] in
  Alcotest.(check string) "lowest then highest" "\xe2\x96\x81\xe2\x96\x88" s

let () =
  Alcotest.run "dream.util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_preserves;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "state round trip" `Quick test_rng_state_round_trip;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "pareto min" `Quick test_rng_pareto_min;
          Alcotest.test_case "zipf range" `Quick test_rng_zipf_range;
          Alcotest.test_case "zipf skew" `Slow test_rng_zipf_skew;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "blend" `Quick test_ewma_blend;
          Alcotest.test_case "empty value" `Quick test_ewma_empty_value;
          Alcotest.test_case "scale and seed" `Quick test_ewma_scale_seed;
          Alcotest.test_case "invalid history" `Quick test_ewma_invalid_history;
          Alcotest.test_case "convergence" `Quick test_ewma_convergence;
          Alcotest.test_case "codec round trip" `Quick test_ewma_codec_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile degenerate samples" `Quick
            test_stats_percentile_degenerate;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
        ] );
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          QCheck_alcotest.to_alcotest heap_sorted_prop;
          QCheck_alcotest.to_alcotest heap_length_prop;
          QCheck_alcotest.to_alcotest percentile_bounds_prop;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "binned" `Quick test_ts_binned;
          Alcotest.test_case "binned invalid" `Quick test_ts_binned_invalid;
          Alcotest.test_case "sparkline" `Quick test_ts_sparkline;
          Alcotest.test_case "sparkline scaling" `Quick test_ts_sparkline_scaling;
        ] );
    ]
