(* Benchmark-trajectory tests: the BENCH_<figure>.json codec, the
   comparator's gating semantics (the CI perf gate's exit-1 contract),
   and bit-for-bit deterministic profiles over manual clock/GC sources. *)

module Snapshot = Dream_obs.Bench_snapshot
module Diff = Dream_obs.Bench_diff
module Profile = Dream_obs.Profile
module Clock = Dream_obs.Clock
module Gc_stats = Dream_obs.Gc_stats
module Registry = Dream_obs.Registry

(* {1 Codec} *)

let with_temp_dir f =
  let dir = Filename.temp_dir "dream_bench" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)


let gc_reading i =
  {
    Gc_stats.minor_words = float_of_int (i * 1000) /. 16.0;
    promoted_words = float_of_int (i * 10) /. 4.0;
    major_words = float_of_int (i * 30) /. 8.0;
    minor_collections = i;
    major_collections = i / 3;
    compactions = i / 7;
  }

(* Snapshots built from arbitrary ints and strings: metric names are made
   unique by index (validate rejects duplicates), every float is finite by
   construction, and names/units exercise the JSON string escaper. *)
let snapshot_of (figure, quick, cells, phases) =
  let metrics =
    List.mapi
      (fun i (name, v) ->
        let direction =
          match i mod 3 with 0 -> Snapshot.Lower_better | 1 -> Snapshot.Higher_better | _ -> Snapshot.Info
        in
        Snapshot.metric
          ~unit_:(if i mod 2 = 0 then "ms" else "w\"x\\y")
          ~direction
          (Printf.sprintf "m%d_%s" i name)
          (float_of_int v /. 32.0))
      cells
  in
  let phases =
    List.mapi
      (fun i (count, wall) ->
        {
          Profile.path = Printf.sprintf "epoch/p%d" i;
          count = abs count;
          wall_ms = float_of_int wall /. 64.0;
          gc = gc_reading (abs count);
        })
      phases
  in
  Snapshot.make
    ~figure:(if figure = "" then "f" else figure)
    ~quick ~seeds:[ 1; 31; 97 ] ~metrics ~phases ()

(* [snap] written to a fresh directory and read back. *)
let write_read snap =
  with_temp_dir (fun dir -> Result.bind (Snapshot.write snap ~dir) Snapshot.read)

(* A figure names the snapshot's file, so it is kept within a file name's
   length. *)
let codec_round_trip =
  QCheck.Test.make ~name:"snapshot codec round-trips exactly" ~count:200
    QCheck.(
      quad (string_of_size (Gen.int_bound 100)) bool
        (small_list (pair (string_of_size Gen.small_nat) int))
        (small_list (pair small_int small_int)))
    (fun input ->
      let snap = snapshot_of input in
      match write_read snap with
      | Ok snap' -> snap = snap'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

let test_nan_never_round_trips () =
  let snap =
    Snapshot.make ~figure:"bad" ~quick:true
      ~metrics:[ Snapshot.metric "broken" Float.nan ]
      ()
  in
  (match with_temp_dir (fun dir -> Snapshot.write snap ~dir) with
  | Ok _ -> Alcotest.fail "wrote a NaN metric"
  | Error _ -> ());
  (* Even if the document were forced out, NaN renders as JSON null and
     the reader rejects it — the comparator's 124 path.  The forced
     document is a finite one's with its value's text swapped for NaN's. *)
  let render v = Dream_obs.Json.to_string (Dream_obs.Json.Float v) in
  Alcotest.(check string) "NaN renders as null" "null" (render Float.nan);
  let finite = { snap with Snapshot.metrics = [ Snapshot.metric "broken" 0.5 ] } in
  with_temp_dir (fun dir ->
      match Snapshot.write finite ~dir with
      | Error e -> Alcotest.failf "write failed: %s" e
      | Ok path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        let value = {|"value":|} ^ render 0.5 in
        let n = String.length value in
        let rec find i = if String.sub text i n = value then i else find (i + 1) in
        let at = find 0 in
        let forced =
          String.sub text 0 at ^ {|"value":|} ^ render Float.nan
          ^ String.sub text (at + n) (String.length text - at - n)
        in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc forced);
        match Snapshot.read path with
        | Ok _ -> Alcotest.fail "parsed a snapshot containing NaN"
        | Error _ -> ())

let test_filename_sanitizes () =
  let filename figure =
    with_temp_dir (fun dir ->
        match Snapshot.write (Snapshot.make ~figure ~quick:true ()) ~dir with
        | Ok path -> Filename.basename path
        | Error e -> Alcotest.failf "write failed: %s" e)
  in
  Alcotest.(check string) "dash maps to underscore" "BENCH_degraded_mode.json"
    (filename "degraded-mode");
  Alcotest.(check string) "path chars map to underscore" "BENCH____fig_6.json"
    (filename "../fig 6")

let baseline_dir =
  if Sys.file_exists "../bench/baseline" then "../bench/baseline" else "bench/baseline"

(* Every committed snapshot reads back and writes out as its own bytes. *)
let test_committed_snapshots_round_trip () =
  let files =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f)
    |> List.sort String.compare
  in
  List.iter
    (fun file -> Alcotest.(check bool) (file ^ " committed") true (List.mem file files))
    [ "BENCH_fig17.json"; "BENCH_telemetry_overhead.json" ];
  List.iter
    (fun file ->
      let path = Filename.concat baseline_dir file in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      match Snapshot.read path with
      | Error e -> Alcotest.failf "%s" e
      | Ok snap ->
        with_temp_dir (fun out ->
            match Snapshot.write snap ~dir:out with
            | Error e -> Alcotest.failf "%s: %s" file e
            | Ok written ->
              Alcotest.(check string) (file ^ " name") file (Filename.basename written);
              Alcotest.(check string) (file ^ " bytes") bytes
                (In_channel.with_open_bin written In_channel.input_all)))
    files

(* The committed Fig 17 snapshot names no member twice, and the key-path
   walk of its phases (the snapshot's own description is private to
   Bench_snapshot) names the members the file holds there. *)
let test_key_paths_match_fig17 () =
  let path = Filename.concat baseline_dir "BENCH_fig17.json" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match (Dream_obs.Json.of_string text, Snapshot.read path) with
  | Ok (Dream_obs.Json.Obj members as doc), Ok snap ->
    Alcotest.(check (list string)) "no member named twice" [] (Key_paths.repeated_members "" doc);
    Alcotest.(check (list string)) "phases member paths"
      (Key_paths.paths_of_json "" (List.assoc "phases" members))
      (Key_paths.key_paths ~json:true Profile.stats_json snap.Snapshot.phases)
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok _, Ok _ -> Alcotest.fail "a snapshot is an object"

(* A corrupt copy of a committed snapshot, read from its file. *)
let fuzz_snapshot =
  let read text =
    with_temp_dir (fun dir ->
        let path = Filename.concat dir "BENCH_x.json" in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
        Snapshot.read path)
  in
  let write snap =
    with_temp_dir (fun dir ->
        match Snapshot.write snap ~dir with
        | Ok path -> In_channel.with_open_bin path In_channel.input_all
        | Error e -> failwith ("write refused: " ^ e))
  in
  Json_fuzz.property ~name:"snapshot corruption" ~read ~write
    (lazy
      (List.map
         (fun f -> In_channel.with_open_bin (Filename.concat baseline_dir f) In_channel.input_all)
         [ "BENCH_fig17.json"; "BENCH_telemetry_overhead.json" ]))

(* {1 Comparator} *)

let satisfaction v =
  Snapshot.metric ~unit_:"pct" ~direction:Snapshot.Higher_better "satisfaction" v

let violations v = Snapshot.metric ~unit_:"count" ~direction:Snapshot.Lower_better "violations" v

let wall v = Snapshot.metric ~unit_:"ms" "wall" v

let base_metrics = [ satisfaction 80.0; violations 0.0; wall 120.0 ]

let snap ?(figure = "fig6") ?(quick = true) metrics =
  Snapshot.make ~figure ~quick ~metrics ()

let diff_exn base current =
  match Diff.diff ~base current with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let row report name =
  match List.find_opt (fun r -> r.Diff.r_name = name) report.Diff.d_rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" name

let status =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt
        (match s with
        | Diff.Unchanged -> "unchanged"
        | Diff.Improved -> "improved"
        | Diff.Regressed -> "regressed"
        | Diff.Missing -> "missing"
        | Diff.Added -> "added"))
    ( = )

let test_diff_identical () =
  let report = diff_exn (snap base_metrics) (snap base_metrics) in
  Alcotest.(check int) "no failures" 0 report.Diff.d_failures;
  List.iter
    (fun r -> Alcotest.check status r.Diff.r_name Diff.Unchanged r.Diff.r_status)
    report.Diff.d_rows

let test_diff_gates_on_direction () =
  (* Satisfaction falling regresses; the wall-clock metric is Info, so a
     4x slowdown stays Unchanged. *)
  let worse = snap [ satisfaction 78.0; violations 0.0; wall 500.0 ] in
  let report = diff_exn (snap base_metrics) worse in
  Alcotest.(check int) "one failure" 1 report.Diff.d_failures;
  Alcotest.check status "satisfaction regressed" Diff.Regressed
    (row report "satisfaction").Diff.r_status;
  Alcotest.check status "info never gates" Diff.Unchanged (row report "wall").Diff.r_status;
  (* Rising is an improvement, and it fails too: a baseline left behind
     would let a later fall back to it pass unseen. *)
  let better = snap [ satisfaction 90.0; violations 0.0; wall 120.0 ] in
  let report = diff_exn (snap base_metrics) better in
  Alcotest.(check int) "an improvement fails" 1 report.Diff.d_failures;
  Alcotest.check status "satisfaction improved" Diff.Improved
    (row report "satisfaction").Diff.r_status;
  let text = Format.asprintf "%a" Diff.pp_report report in
  Alcotest.(check bool) "asks for a re-snapshot" true
    (List.exists
       (String.ends_with ~suffix:"re-snapshot the baseline")
       (String.split_on_char '\n' text))

(* Every move of a gated metric fails, however small: the moves the old
   per-metric slack let through (0.4% worse, 1% better, one allocated word
   more per epoch) and a one-ulp move either way. *)
let test_diff_any_move_fails () =
  let moved name base current =
    let report = diff_exn (snap [ base ]) (snap [ current ]) in
    Alcotest.(check int) (name ^ " fails") 1 report.Diff.d_failures
  in
  moved "0.4% worse" (satisfaction 80.0) (satisfaction 79.68);
  moved "1% better" (satisfaction 80.0) (satisfaction 80.8);
  moved "one ulp lower" (satisfaction 80.0) (satisfaction (Float.pred 80.0));
  moved "one ulp higher" (satisfaction 80.0) (satisfaction (Float.succ 80.0));
  let committed = Filename.concat baseline_dir "BENCH_telemetry_overhead.json" in
  match Snapshot.read committed with
  | Error e -> Alcotest.fail e
  | Ok base ->
    let plus_one_word (m : Snapshot.metric) =
      if m.Snapshot.m_name = "epoch_alloc_words" then
        { m with Snapshot.m_value = m.Snapshot.m_value +. 1.0 }
      else m
    in
    let current = { base with Snapshot.metrics = List.map plus_one_word base.Snapshot.metrics } in
    let report = diff_exn base current in
    Alcotest.(check int) "one word more per epoch fails" 1 report.Diff.d_failures;
    Alcotest.check status "epoch_alloc_words regressed" Diff.Regressed
      (row report "epoch_alloc_words").Diff.r_status

let test_diff_missing_and_added () =
  let brand_new = Snapshot.metric ~unit_:"count" "brand_new" 7.0 in
  let current = snap [ satisfaction 80.0; wall 120.0; brand_new ] in
  let report = diff_exn (snap base_metrics) current in
  (* Lost coverage gates; new coverage is reported but never gates. *)
  Alcotest.check status "lost metric is missing" Diff.Missing
    (row report "violations").Diff.r_status;
  Alcotest.check status "new metric is added" Diff.Added (row report "brand_new").Diff.r_status;
  Alcotest.(check int) "only the loss gates" 1 report.Diff.d_failures

let test_diff_zero_baseline () =
  (* A zero baseline has no relative scale: a move off it reads as an
     infinite-percent change, and like every move of a gated metric it
     fails. *)
  let current = snap [ satisfaction 80.0; violations 2.0; wall 120.0 ] in
  let report = diff_exn (snap base_metrics) current in
  let r = row report "violations" in
  Alcotest.check status "off-zero gates" Diff.Regressed r.Diff.r_status;
  Alcotest.(check bool) "delta is infinite" true (r.Diff.r_delta_pct = Float.infinity)

let test_diff_rejects_mismatches () =
  let reject base current =
    match Diff.diff ~base current with
    | Ok _ -> Alcotest.fail "diff accepted mismatched snapshots"
    | Error _ -> ()
  in
  reject (snap base_metrics) (snap ~figure:"fig8" base_metrics);
  reject (snap base_metrics) (snap ~quick:false base_metrics)

let test_trend () =
  let point v = snap [ Snapshot.metric ~unit_:"pct" "satisfaction" v ] in
  let rows = Diff.trend [ ("a", point 80.0); ("b", point 70.0); ("c", point 90.0) ] in
  match rows with
  | [ r ] ->
    Alcotest.(check string) "figure" "fig6" r.Diff.t_figure;
    Alcotest.(check (float 1e-9)) "min" 70.0 r.Diff.t_min;
    Alcotest.(check (float 1e-9)) "max" 90.0 r.Diff.t_max;
    Alcotest.(check (float 1e-9)) "last vs first" 12.5 r.Diff.t_delta_pct;
    Alcotest.(check int) "points" 3 (List.length r.Diff.t_points)
  | rows -> Alcotest.failf "expected one trend row, got %d" (List.length rows)

(* {1 Deterministic profiles} *)

(* The all-zero reading the deltas below start from. *)
let zero =
  {
    Gc_stats.minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let test_profile_deterministic () =
  let clock, mc = Clock.manual () in
  let gc, mg = Gc_stats.manual () in
  let p = Profile.create ~clock ~gc () in
  let epoch = Profile.intern p "epoch" in
  let allocate = Profile.intern p "epoch/allocate" in
  Profile.start p epoch;
  Clock.advance mc 5.0;
  Gc_stats.advance mg { zero with Gc_stats.minor_words = 100.0; minor_collections = 1 };
  Profile.start p allocate;
  Clock.advance mc 2.0;
  Gc_stats.advance mg { zero with Gc_stats.minor_words = 40.0 };
  Profile.stop p allocate;
  Profile.stop p epoch;
  Profile.close_epoch p;
  (* The nested span's cost is part of its parent's (flame-graph
     convention), and with manual sources every number is exact. *)
  (match Profile.find p "epoch" with
  | Some s ->
    Alcotest.(check int) "epoch count" 1 s.Profile.count;
    Alcotest.(check (float 0.0)) "epoch wall" 7.0 s.Profile.wall_ms;
    Alcotest.(check (float 0.0)) "epoch minor words" 140.0 s.Profile.gc.Gc_stats.minor_words;
    Alcotest.(check int) "epoch minor collections" 1 s.Profile.gc.Gc_stats.minor_collections
  | None -> Alcotest.fail "no epoch span");
  (match Profile.find p "epoch/allocate" with
  | Some s ->
    Alcotest.(check (float 0.0)) "allocate wall" 2.0 s.Profile.wall_ms;
    Alcotest.(check (float 0.0)) "allocate minor words" 40.0 s.Profile.gc.Gc_stats.minor_words
  | None -> Alcotest.fail "no nested span");
  (* A second epoch's sample merges under the same path. *)
  Profile.start p allocate;
  Clock.advance mc 3.0;
  Gc_stats.advance mg { zero with Gc_stats.minor_words = 10.0 };
  Profile.stop p allocate;
  Profile.close_epoch p;
  (match Profile.find p "epoch/allocate" with
  | Some s ->
    Alcotest.(check int) "merged count" 2 s.Profile.count;
    Alcotest.(check (float 0.0)) "merged wall" 5.0 s.Profile.wall_ms;
    Alcotest.(check (float 0.0)) "merged minor words" 50.0 s.Profile.gc.Gc_stats.minor_words
  | None -> Alcotest.fail "the second epoch lost the span");
  (* The profile.json codec is the identity on stats. *)
  match Dream_obs.Json.(decode Profile.stats_json (encode Profile.stats_json (Profile.stats p))) with
  | Ok stats -> Alcotest.(check bool) "stats round-trip" true (stats = Profile.stats p)
  | Error e -> Alcotest.failf "stats reparse failed: %s" e

let test_observe_epoch () =
  let reg = Registry.create () in
  let clock, mc = Clock.manual () in
  let gc, mg = Gc_stats.manual () in
  let p = Profile.create ~clock ~gc () in
  let epoch = Profile.intern p "epoch" in
  Profile.start p epoch;
  Clock.advance mc 10.0;
  Gc_stats.advance mg
    {
      Gc_stats.minor_words = 1000.0;
      promoted_words = 200.0;
      major_words = 300.0;
      minor_collections = 3;
      major_collections = 1;
      compactions = 0;
    };
  Profile.stop p epoch;
  Profile.observe_epoch reg p epoch;
  (* Allocated words = minor + major - promoted (promoted words would
     otherwise be double-counted). *)
  Alcotest.(check (float 1e-9)) "alloc rate" 110.0
    (Prom_text.value reg "dream_alloc_rate_words_per_ms");
  Alcotest.(check int) "minor collections" 3
    (Registry.Counter.value (Registry.counter reg "gc_minor_collections"));
  Alcotest.(check int) "major collections" 1
    (Registry.Counter.value (Registry.counter reg "gc_major_collections"));
  Alcotest.(check (float 0.0)) "major-gc epochs observed" 1.0
    (Prom_text.value reg "dream_gc_major_epoch_ms_count");
  Alcotest.(check (float 0.0)) "alloc histogram fed" 1.0
    (Prom_text.value reg "dream_epoch_alloc_words_count")

let () =
  Alcotest.run "bench"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest codec_round_trip;
          Alcotest.test_case "NaN never round-trips" `Quick test_nan_never_round_trips;
          Alcotest.test_case "filename sanitizes" `Quick test_filename_sanitizes;
          Alcotest.test_case "committed snapshots keep their bytes" `Quick
            test_committed_snapshots_round_trip;
          Alcotest.test_case "key paths match BENCH_fig17" `Quick test_key_paths_match_fig17;
          fuzz_snapshot;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical snapshots" `Quick test_diff_identical;
          Alcotest.test_case "direction-aware gating" `Quick test_diff_gates_on_direction;
          Alcotest.test_case "any move of a gated metric fails" `Quick test_diff_any_move_fails;
          Alcotest.test_case "missing gates, added does not" `Quick test_diff_missing_and_added;
          Alcotest.test_case "zero baseline" `Quick test_diff_zero_baseline;
          Alcotest.test_case "rejects mismatches" `Quick test_diff_rejects_mismatches;
          Alcotest.test_case "trend trajectories" `Quick test_trend;
        ] );
      ( "profile",
        [
          Alcotest.test_case "deterministic over manual sources" `Quick
            test_profile_deterministic;
          Alcotest.test_case "observe_epoch feeds the registry" `Quick test_observe_epoch;
        ] );
    ]
