(* Telemetry subsystem tests: JSON round-trips, the metrics registry, the
   trace, the mockable clock — and the two end-to-end guarantees the design
   leans on: an attached bundle never perturbs the simulation (zero-diff),
   and everything [Telemetry.write_dir] emits loads back through
   [Inspect.load] with counters that match the run. *)

module Json = Dream_obs.Json
module Registry = Dream_obs.Registry
module Trace = Dream_obs.Trace
module Clock = Dream_obs.Clock
module Telemetry = Dream_obs.Telemetry
module Profile = Dream_obs.Profile
module Inspect = Dream_obs.Inspect
module Gc_stats = Dream_obs.Gc_stats
module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config
module Fetch = Dream_core.Fetch
module Metrics = Dream_core.Metrics
module Delay_model = Dream_switch.Delay_model
module Fault_model = Dream_fault.Fault_model
module Experiment = Dream_sim.Experiment
module Degraded_mode = Dream_sim.Degraded_mode
module Drive = Dream_workload.Drive

(* {1 Gc_stats} *)

let rec conses n acc = if n = 0 then acc else conses (n - 1) (n :: acc)

(* Minor words allocated between two reads of the real source, with [f]
   run in between. *)
let minor_words_around f =
  let before = Gc_stats.read Gc_stats.real in
  ignore (Sys.opaque_identity (f ()));
  let after = Gc_stats.read Gc_stats.real in
  (Gc_stats.sub after before).Gc_stats.minor_words

(* The minor count is exact to the word, not rounded to a minor heap: a
   100-cons list is 300 words (header and two fields each) more than
   nothing, whatever the reads themselves cost. *)
let test_gc_minor_words_exact () =
  let nothing = minor_words_around (fun () -> []) in
  let list = minor_words_around (fun () -> conses 100 []) in
  Alcotest.(check (float 0.0)) "100 conses" 300.0 (list -. nothing)

let alloc_words (r : Gc_stats.reading) =
  r.Gc_stats.minor_words +. r.Gc_stats.major_words -. r.Gc_stats.promoted_words

(* Words one profiled span is charged for running [f]. *)
let span_words f =
  let profile = Profile.create ~clock:(fst (Clock.manual ())) () in
  let span = Profile.intern profile "probe" in
  Profile.start profile span;
  ignore (Sys.opaque_identity (f ()));
  Profile.stop profile span;
  Profile.close_epoch profile;
  match Profile.find profile "probe" with
  | Some s -> alloc_words s.Profile.gc
  | None -> Alcotest.fail "no probe span"

(* A 100,000-word array goes straight to the major heap: the span is
   charged its 100,001 words (with the header), no more — not the reads'
   own results nor the clock's — and it is charged them at once, not when
   the runtime next flushes its pending major words. *)
let test_span_charges_major_array_exactly () =
  Alcotest.(check (float 0.0)) "empty span" 0.0 (span_words (fun () -> ()));
  Alcotest.(check (float 0.0)) "major array" 100_001.0 (span_words (fun () -> Array.make 100_000 0))

(* A child span's start and stop charge the span enclosing them nothing:
   after ten empty child fragments the parent reads 0 words, as the child
   does. *)
let test_child_fragments_charge_parent_nothing () =
  let profile = Profile.create ~clock:(fst (Clock.manual ())) () in
  let parent = Profile.intern profile "probe" and child = Profile.intern profile "probe/child" in
  Profile.start profile parent;
  for _ = 1 to 10 do
    Profile.start profile child;
    Profile.stop profile child
  done;
  Profile.stop profile parent;
  Profile.close_epoch profile;
  List.iter
    (fun path ->
      match Profile.find profile path with
      | Some s -> Alcotest.(check (float 0.0)) path 0.0 (alloc_words s.Profile.gc)
      | None -> Alcotest.failf "no %s span" path)
    [ "probe"; "probe/child" ]

(* A minor collection inside the span promotes live words: counted as
   promoted and as major alike, they cancel, and the span still reads the
   300 words of its list. *)
let test_span_words_survive_minor_collection () =
  let words =
    span_words (fun () ->
        let l = conses 100 [] in
        Gc.minor ();
        l)
  in
  Alcotest.(check (float 0.0)) "100 conses across a minor collection" 300.0 words
[@@lint.allow "determinism-gc"]

(* {1 Json} *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("t", Json.Str "event");
        ("epoch", Json.Int 12);
        ("ms", Json.Float 0.25);
        ("tags", Json.List [ Json.Str "a\"b\\c"; Json.Null; Json.Bool true ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* Floats keep their floatness through the round trip. *)
  (match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "float stays float" 3.0 f
  | Ok _ -> Alcotest.fail "3.0 reparsed as non-float"
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* Non-finite floats have no JSON spelling. *)
  Alcotest.(check string) "nan renders null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":1,}";
  bad "1 2";
  bad "{\"a\" 1}";
  (* A lone low surrogate names no character. *)
  bad "\"\\udc00\""

(* {1 Registry} *)

let test_registry_find_or_create () =
  let reg = Registry.create () in
  let a = Registry.counter reg "ticks" in
  let b = Registry.counter reg "ticks" in
  Registry.Counter.incr a;
  Registry.Counter.add b 2;
  Alcotest.(check int) "one shared cell" 3 (Registry.Counter.value a);
  (* Label order is irrelevant to identity. *)
  let l1 = Registry.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "labelled" in
  let l2 = Registry.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "labelled" in
  Registry.Counter.incr l1;
  Alcotest.(check int) "labels sorted into one identity" 1 (Registry.Counter.value l2);
  (* Different labels, different cell. *)
  let l3 = Registry.counter reg ~labels:[ ("x", "9") ] "labelled" in
  Alcotest.(check int) "distinct labels distinct cell" 0 (Registry.Counter.value l3)

let test_registry_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "m");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Registry: m is a counter, requested as a gauge") (fun () ->
      ignore (Registry.gauge reg "m"))

let test_prometheus_conformance () =
  let reg = Registry.create () in
  (* An awkward metric: spaces in the name, a label key starting with a
     digit, and a label value holding every character the exposition
     format escapes. *)
  let c =
    Registry.counter reg ~labels:[ ("kind", "a\"b\\c\nd"); ("9bad key", "v") ] "crash count"
  in
  Registry.Counter.add c 3;
  ignore (Registry.counter reg "crash count");
  Registry.Histogram.observe (Registry.histogram reg "phase_ms") 3.7;
  let out = Registry.to_prometheus reg in
  let lines = String.split_on_char '\n' out in
  let index_where descr p =
    let rec go i = function
      | [] -> Alcotest.failf "no line matches %s" descr
      | l :: rest -> if p l then i else go (i + 1) rest
    in
    go 0 lines
  in
  let count p = List.length (List.filter p lines) in
  (* One TYPE line per family, ahead of its samples. *)
  let type_i = index_where "TYPE line" (String.equal "# TYPE dream_crash_count_total counter") in
  Alcotest.(check bool) "type precedes samples" true
    (type_i < index_where "a sample" (String.starts_with ~prefix:"dream_crash_count_total"));
  Alcotest.(check int) "one TYPE per family" 1
    (count (String.starts_with ~prefix:"# TYPE dream_crash_count_total"));
  (* Labels sorted by key; the bad key is sanitized to [a-zA-Z_][a-zA-Z0-9_]*
     and the value escapes backslash, quote and newline. *)
  ignore
    (index_where "escaped sample line"
       (String.equal "dream_crash_count_total{_bad_key=\"v\",kind=\"a\\\"b\\\\c\\nd\"} 3"));
  ignore (index_where "unlabelled sample line" (String.equal "dream_crash_count_total 0"));
  (* Histograms expose cumulative buckets plus the +Inf bound, _sum and
     _count. *)
  ignore (index_where "histogram type" (String.equal "# TYPE dream_phase_ms histogram"));
  ignore
    (index_where "+Inf bucket" (String.equal "dream_phase_ms_bucket{le=\"+Inf\"} 1"));
  ignore (index_where "histogram count" (String.equal "dream_phase_ms_count 1"));
  ignore (index_where "histogram sum" (String.equal "dream_phase_ms_sum 3.7"))

(* {1 Trace} *)

let test_trace_round_trip () =
  let tr = Trace.create () in
  Trace.span tr ~epoch:3 ~phase:"fetch" ~ms:1.5;
  Trace.event tr ~epoch:3 ~name:"task_admit" [ ("task", Trace.Int 7); ("kind", Trace.Str "hh") ];
  Alcotest.(check int) "two items" 2 (Trace.length tr);
  List.iter
    (fun item ->
      match Json.decode Trace.item_json (Json.encode Trace.item_json item) with
      | Ok item' -> Alcotest.(check bool) "item survives json" true (item = item')
      | Error e -> Alcotest.failf "decode: %s" e)
    (Trace.items tr);
  (* A repeated tag is no field of the event: it reads as the event
     [Trace.event] can make, and writes out with one tag. *)
  let line = {|{"t":"event","epoch":1,"name":"x","t":"y","k":2}|} in
  match Result.bind (Json.of_string line) (Json.decode Trace.item_json) with
  | Ok item ->
    Alcotest.(check bool) "repeated tag dropped" true
      (item = Trace.Event { epoch = 1; name = "x"; fields = [ ("k", Trace.Int 2) ] });
    Alcotest.(check string) "one tag written" {|{"t":"event","epoch":1,"name":"x","k":2}|}
      (Json.to_string (Json.encode Trace.item_json item))
  | Error e -> Alcotest.failf "decode: %s" e

let test_trace_reserved_keys () =
  let tr = Trace.create () in
  Alcotest.check_raises "reserved field key"
    (Invalid_argument "Trace.event: reserved field key \"epoch\"") (fun () ->
      Trace.event tr ~epoch:0 ~name:"x" [ ("epoch", Trace.Int 1) ])

(* {1 Clock} *)

let test_manual_clock () =
  let clock, handle = Clock.manual ~start:100.0 () in
  Alcotest.(check (float 1e-9)) "starts where told" 100.0 (Clock.now_ms clock);
  Clock.advance handle 2.5;
  Clock.advance handle 0.0;
  Alcotest.(check (float 1e-9)) "advances by ms" 102.5 (Clock.now_ms clock);
  Alcotest.check_raises "monotonic" (Invalid_argument "Clock.advance: negative step") (fun () ->
      Clock.advance handle (-1.0))

(* {1 End to end} *)

(* Small but eventful: compressed timeline, few switches, faults on so the
   crash/retry/reconcile paths all run. *)
let scenario =
  let s = Experiment.scenario ~quick:true in
  { s with Scenario.num_switches = 8; num_tasks = 8; total_epochs = 40 }

let config ~telemetry =
  { Config.default with Config.faults = Some (Fault_model.uniform ~seed:41 0.08); telemetry }

let test_zero_diff () =
  let off = Experiment.run ~config:(config ~telemetry:None) scenario Experiment.dream_strategy in
  let bundle = Telemetry.create () in
  let on =
    Experiment.run ~config:(config ~telemetry:(Some bundle)) scenario Experiment.dream_strategy
  in
  Alcotest.(check bool) "summaries identical" true (off.Experiment.summary = on.Experiment.summary);
  Alcotest.(check bool) "per-epoch records identical" true
    (off.Experiment.records = on.Experiment.records);
  Alcotest.(check bool) "robustness identical" true
    (off.Experiment.summary.Metrics.robustness = on.Experiment.summary.Metrics.robustness);
  Alcotest.(check int) "rules installed identical" off.Experiment.rules_installed
    on.Experiment.rules_installed;
  Alcotest.(check int) "rules fetched identical" off.Experiment.rules_fetched
    on.Experiment.rules_fetched;
  Alcotest.(check bool) "and the instrumented run did record a trace" true
    (Trace.length (Telemetry.trace bundle) > 0)

let with_temp_dir f =
  let dir = Filename.temp_file "dream-obs-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_export_and_inspect () =
  let bundle = Telemetry.create () in
  let result =
    Experiment.run ~config:(config ~telemetry:(Some bundle)) scenario Experiment.dream_strategy
  in
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir bundle ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      (* Every line of trace.jsonl is one trace item. *)
      let ic = open_in (Filename.concat dir "trace.jsonl") in
      let lines = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lines;
           match Result.bind (Json.of_string line) (Json.decode Trace.item_json) with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "trace line %d: %s" !lines e
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "one JSONL line per trace item" (Trace.length (Telemetry.trace bundle))
        !lines;
      match Inspect.load dir with
      | Error e -> Alcotest.failf "Inspect.load: %s" e
      | Ok report ->
        Alcotest.(check bool) "spans recorded" true (report.Inspect.spans > 0);
        Alcotest.(check bool) "events recorded" true (report.Inspect.events > 0);
        Alcotest.(check bool) "epoch phases present" true
          (List.exists (fun p -> p.Inspect.phase = "epoch") report.Inspect.measured);
        (* The Prometheus snapshot read back agrees with the run's own
           robustness record — the dedup guarantee. *)
        let rob = result.Experiment.summary.Metrics.robustness in
        let counter report name =
          Option.value ~default:0 (List.assoc_opt name report.Inspect.counters)
        in
        Alcotest.(check int) "crashes counter" rob.Metrics.crashes (counter report "crashes");
        Alcotest.(check int) "fetch_timeouts counter" rob.Metrics.fetch_timeouts
          (counter report "fetch_timeouts");
        Alcotest.(check int) "recoveries counter" rob.Metrics.recoveries
          (counter report "recoveries");
        Alcotest.(check int) "rules_installed counter" result.Experiment.rules_installed
          (counter report "rules_installed");
        Alcotest.(check int) "rules_fetched counter" result.Experiment.rules_fetched
          (counter report "rules_fetched"))

(* An N-epoch run's bundle covers exactly N epochs, although finalize's
   task_complete events carry epoch N, the one after the last tick. *)
let test_inspect_counts_run_epochs () =
  let bundle = Telemetry.create () in
  ignore
    (Experiment.run ~config:(config ~telemetry:(Some bundle)) scenario Experiment.dream_strategy);
  let epochs = scenario.Scenario.total_epochs in
  Alcotest.(check bool) "an event carries the epoch after the last tick" true
    (List.exists
       (function Trace.Event { epoch; _ } -> epoch = epochs | Trace.Span _ -> false)
       (Trace.items (Telemetry.trace bundle)));
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir bundle ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      match Inspect.load dir with
      | Error e -> Alcotest.failf "Inspect.load: %s" e
      | Ok report -> Alcotest.(check int) "epochs" epochs report.Inspect.epochs)

(* Each measured child span is at most the epoch in every epoch, so each
   quantile of it is at most the epoch's too. *)
let test_inspect_children_within_epoch () =
  let bundle = Telemetry.create () in
  ignore
    (Experiment.run ~config:(config ~telemetry:(Some bundle)) scenario Experiment.dream_strategy);
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir bundle ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      match Inspect.load dir with
      | Error e -> Alcotest.failf "Inspect.load: %s" e
      | Ok report ->
        let names rows = List.map (fun p -> p.Inspect.phase) rows in
        Alcotest.(check (list string)) "modelled rows" [ "model/fetch"; "model/save" ]
          (names report.Inspect.modelled);
        Alcotest.(check int) "measured rows" 8 (List.length report.Inspect.measured);
        let epoch =
          match List.find_opt (fun p -> p.Inspect.phase = "epoch") report.Inspect.measured with
          | Some p -> p
          | None -> Alcotest.fail "no epoch row"
        in
        List.iter
          (fun (p : Inspect.phase_stat) ->
            List.iter
              (fun (what, f) ->
                if f p > f epoch then
                  Alcotest.failf "%s %s %.6f exceeds the epoch's %.6f" p.Inspect.phase what (f p)
                    (f epoch))
              [
                ("p50", fun p -> p.Inspect.p50_ms); ("p95", fun p -> p.Inspect.p95_ms);
                ("max", fun p -> p.Inspect.max_ms);
              ])
          report.Inspect.measured)

(* switches.csv is read like tasks.csv: a row that is not six integers
   fails the load at its own line. *)
let test_inspect_rejects_bad_switch_row () =
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir (Telemetry.create ()) ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      let path = Filename.concat dir "switches.csv" in
      List.iter
        (fun (row, expected) ->
          Out_channel.with_open_text path (fun oc ->
              Printf.fprintf oc "epoch,switch,rules,fetches,installs,removals\n0,1,2,3,4,5\n%s\n"
                row);
          match Inspect.load dir with
          | Ok _ -> Alcotest.failf "row %S loaded" row
          | Error e -> Alcotest.(check string) row (Printf.sprintf "%s:3: %s" path expected) e)
        [ ("0,1,x,3,4,5", "malformed row"); ("0,1,2,3,4", "expected 6 columns") ])

(* A degraded-mode run at full adversity opens breakers and sheds; the
   inspect report of its bundle prints every nonzero robustness counter
   of the run, by the names of Metrics' one table. *)
let test_inspect_prints_degraded_counters () =
  let bundle = Telemetry.create () in
  let point = Degraded_mode.run_point ~telemetry:bundle scenario Experiment.dream_strategy 1.0 in
  let rob = point.Degraded_mode.summary.Metrics.robustness in
  Alcotest.(check bool) "the run shed or opened a breaker" true
    (rob.Metrics.sheds > 0 || rob.Metrics.breaker_opens > 0);
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir bundle ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      match Inspect.load dir with
      | Error e -> Alcotest.failf "Inspect.load: %s" e
      | Ok report ->
        let printed =
          Format.asprintf "%a" (Inspect.pp ~robustness:(Metrics.to_list Metrics.names)) report
        in
        List.iter
          (fun (name, v) ->
            if v > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "%s = %d printed" name v)
                true
                (List.exists
                   (fun line ->
                     match String.split_on_char ' ' (String.trim line) with
                     | n :: rest -> n = name && List.mem (string_of_int v) rest
                     | [] -> false)
                   (String.split_on_char '\n' printed)))
          (List.combine (Metrics.to_list Metrics.names) (Metrics.to_list rob)))

(* {1 Bundle bytes}

   On a manual clock and a manual GC source a telemetry bundle is the same
   bytes on every run, so the md5s of its trace.jsonl and profile.json pin
   the JSON spelling of every trace item and profile stat.  The run holds
   the clock still; a hand-timed span and event after it add the floats a
   still clock never produces. *)

let write_pin_bundle dir =
  let clock, hand = Clock.manual () in
  let gc, gc_hand = Gc_stats.manual () in
  let profile = Profile.create ~clock ~gc () in
  let bundle = Telemetry.create ~profile () in
  ignore
    (Experiment.run ~config:(config ~telemetry:(Some bundle)) scenario Experiment.dream_strategy);
  let probe = Profile.intern profile "probe" in
  Profile.start profile probe;
  Clock.advance hand (1.0 /. 3.0);
  Gc_stats.advance gc_hand
    {
      Gc_stats.minor_words = 1e17;
      promoted_words = 0.125;
      major_words = 12345.0;
      minor_collections = 3;
      major_collections = 1;
      compactions = 0;
    };
  Profile.stop profile probe;
  Profile.close_epoch profile;
  let trace = Telemetry.trace bundle in
  Trace.span trace ~epoch:41 ~phase:"probe" ~ms:1e-7;
  Trace.event trace ~epoch:41 ~name:"probe"
    [
      ("third", Trace.Float (1.0 /. 3.0));
      ("whole", Trace.Float 3.0);
      ("huge", Trace.Float (-1e300));
      ("neg", Trace.Int (-7));
      ("text", Trace.Str "a\"b\\c\n\001\xc3\xa9");
    ];
  match Telemetry.write_dir bundle ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_dir: %s" e

(* The bundle's trace.jsonl and profile.json, as written. *)
let pin_bundle =
  lazy
    (with_temp_dir (fun dir ->
         write_pin_bundle dir;
         let read name = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
         (read "trace.jsonl", read "profile.json")))

let test_bundle_bytes_pinned () =
  let trace, profile = Lazy.force pin_bundle in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "trace.jsonl md5" "13e375a2621dbb113f96f64b7acdb457" (md5 trace);
  Alcotest.(check string) "profile.json md5" "8d1617eb02cdd38fc0d5907f441cda7d" (md5 profile)

let decoding d s = Result.bind (Json.of_string s) (Json.decode d)

let encoding d v = Json.to_string (Json.encode d v)

(* Every line of the pinned trace and its profile read back through their
   descriptions and write out as the same bytes. *)
let test_bundle_reads_back () =
  let trace, profile = Lazy.force pin_bundle in
  let same_bytes d doc =
    match decoding d doc with
    | Ok v -> Alcotest.(check string) "written again" (String.trim doc) (encoding d v)
    | Error e -> Alcotest.failf "%s: %s" doc e
  in
  List.iter (same_bytes Trace.item_json) (String.split_on_char '\n' (String.trim trace));
  same_bytes Profile.stats_json profile

let fuzz_profile =
  Json_fuzz.property ~name:"profile.json corruption" ~read:(decoding Profile.stats_json)
    ~write:(encoding Profile.stats_json)
    (lazy [ snd (Lazy.force pin_bundle) ])

(* The run's first events and spans, and the hand-made span and event. *)
let fuzz_trace =
  Json_fuzz.property ~name:"trace item corruption" ~read:(decoding Trace.item_json)
    ~write:(encoding Trace.item_json)
    (lazy
      (let lines = String.split_on_char '\n' (String.trim (fst (Lazy.force pin_bundle))) in
       let n = List.length lines in
       List.filteri (fun i _ -> i < 3 || i >= n - 3) lines))

(* {1 Phase views}

   Three views carry each epoch's phase split: the trace spans, the
   [phase_ms] histograms and the profile.  They are read off one recorder,
   so on the real CPU clock they agree bit for bit. *)

(* Fault-free, so every epoch is priced by the delay model alone. *)
let traced_run () =
  let profile = Profile.create () in
  let bundle = Telemetry.create ~profile () in
  ignore
    (Experiment.run
       ~config:{ Config.default with Config.telemetry = Some bundle }
       scenario Experiment.dream_strategy);
  bundle

let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let spans_of bundle phase = Trace.spans (Telemetry.trace bundle) ~phase

let sum = List.fold_left ( +. ) 0.0

let measured_paths =
  [
    "epoch"; "epoch/fetch"; "epoch/estimate"; "epoch/ground_truth"; "epoch/allocate";
    "epoch/configure"; "epoch/rule_sync"; "epoch/retire";
  ]

(* Ticked one epoch at a time: after each tick, every measured path's
   spans add up, in epoch order, to the profile's total over the closed
   epochs, as the profile folds each epoch cell in.  The trace holds the
   modelled pair and the measured paths, one span each per epoch. *)
let test_phase_views_agree () =
  let profile = Profile.create () in
  let bundle = Telemetry.create ~profile () in
  let drive =
    Drive.create
      ~config:{ Config.default with Config.telemetry = Some bundle }
      ~strategy:Experiment.dream_strategy scenario
  in
  let epochs = scenario.Scenario.total_epochs in
  let wall path =
    match Profile.find profile path with
    | Some s -> s.Profile.wall_ms
    | None -> Alcotest.failf "no %s span in the profile" path
  in
  for epoch = 1 to epochs do
    Drive.step drive;
    List.iter
      (fun path ->
        let spans = spans_of bundle path in
        Alcotest.(check int) (path ^ " span per epoch") epoch (List.length spans);
        check_bits (Printf.sprintf "epoch %d %s" epoch path) (sum spans) (wall path))
      measured_paths
  done;
  let phases = "model/fetch" :: "model/save" :: measured_paths in
  Alcotest.(check (list string)) "span phases, in emission order" phases
    (List.fold_left
       (fun acc -> function
         | Trace.Span { phase; _ } when not (List.mem phase acc) -> acc @ [ phase ]
         | Trace.Span _ | Trace.Event _ -> acc)
       [] (Trace.items (Telemetry.trace bundle)));
  let registry = Telemetry.registry bundle in
  List.iter
    (fun phase ->
      let spans = spans_of bundle phase in
      let series suffix = Printf.sprintf "dream_phase_ms_%s{phase=\"%s\"}" suffix phase in
      Alcotest.(check int) (phase ^ " phase_ms count") (List.length spans)
        (int_of_float (Prom_text.value registry (series "count")));
      check_bits (phase ^ " phase_ms sum") (sum spans) (Prom_text.value registry (series "sum")))
    phases;
  let stats = Profile.stats profile in
  Alcotest.(check (list string)) "profile paths"
    [
      "epoch"; "epoch/allocate"; "epoch/configure"; "epoch/estimate"; "epoch/fetch";
      "epoch/ground_truth"; "epoch/retire"; "epoch/rule_sync";
    ]
    (List.map (fun s -> s.Profile.path) stats);
  List.iter
    (fun s -> Alcotest.(check int) (s.Profile.path ^ " count") epochs s.Profile.count)
    stats

(* The rows of the switches.csv [write_dir] writes: every column is an
   integer. *)
let switches_csv bundle =
  with_temp_dir (fun dir ->
      (match Telemetry.write_dir bundle ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_dir: %s" e);
      let ic = open_in (Filename.concat dir "switches.csv") in
      Alcotest.(check string) "switches.csv header" "epoch,switch,rules,fetches,installs,removals"
        (input_line ic);
      let rec rows acc =
        match input_line ic with
        | line -> (
          match List.map int_of_string (String.split_on_char ',' line) with
          | [ epoch; switch; rules; fetches; installs; removals ] ->
            rows ({ Telemetry.epoch; switch; rules; fetches; installs; removals } :: acc)
          | _ -> Alcotest.failf "switches.csv row %S" line)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      rows [])

(* The model/fetch and model/save spans are Fig 17's modelled fetch and
   save times, priced from the epoch's TCAM stats; switches.csv records the
   same stats, so the two rebuild each other.  Retirement runs after
   pricing: a completing task's rule removals
   land in that epoch's switches.csv row but not in its save time, so on
   those epochs the rebuilt save time is only an upper bound. *)
let test_price_from_switch_rows () =
  let bundle = traced_run () in
  let rows = switches_csv bundle in
  let completed =
    List.filter_map
      (function
        | Trace.Event { epoch; name = "task_complete"; _ } -> Some epoch
        | Trace.Event _ | Trace.Span _ -> None)
      (Trace.items (Telemetry.trace bundle))
  in
  let exact_saves = ref 0 in
  (* One span of each per epoch, from epoch 0. *)
  List.iteri
    (fun epoch (fetch_ms, save_ms) ->
      let mine = List.filter (fun (r : Telemetry.switch_row) -> r.Telemetry.epoch = epoch) rows in
      let total f = List.fold_left (fun acc r -> acc + f r) 0 mine in
      let touched =
        List.length
          (List.filter
             (fun (r : Telemetry.switch_row) -> r.Telemetry.fetches > 0 || r.Telemetry.installs > 0)
             mine)
      in
      check_bits
        (Printf.sprintf "epoch %d fetch_ms" epoch)
        (Delay_model.fetch_ms ~rules:(total (fun r -> r.Telemetry.fetches)) ~switches:touched)
        fetch_ms;
      let save =
        Delay_model.save_ms
          ~installs:(total (fun r -> r.Telemetry.installs))
          ~removals:(total (fun r -> r.Telemetry.removals))
          ~switches:touched
      in
      if List.mem epoch completed then begin
        if save_ms > save then
          Alcotest.failf "epoch %d save_ms %h exceeds the switches.csv bound %h" epoch save_ms
            save
      end
      else begin
        check_bits (Printf.sprintf "epoch %d save_ms" epoch) save save_ms;
        if save_ms > 0.0 then incr exact_saves
      end)
    (List.combine (spans_of bundle "model/fetch") (spans_of bundle "model/save"));
  Alcotest.(check bool) "some epochs priced rule updates exactly" true (!exact_saves > 0)

let () =
  Alcotest.run "obs"
    [
      ( "gc_stats",
        [
          Alcotest.test_case "minor words are exact" `Quick test_gc_minor_words_exact;
          Alcotest.test_case "a span is charged a major array exactly" `Quick
            test_span_charges_major_array_exactly;
          Alcotest.test_case "span words survive a minor collection" `Quick
            test_span_words_survive_minor_collection;
          Alcotest.test_case "child fragments charge their parent nothing" `Quick
            test_child_fragments_charge_parent_nothing;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find or create" `Quick test_registry_find_or_create;
          Alcotest.test_case "kind mismatch raises" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "prometheus conformance" `Quick test_prometheus_conformance;
        ] );
      ( "trace",
        [
          Alcotest.test_case "json round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "reserved keys raise" `Quick test_trace_reserved_keys;
        ] );
      ("clock", [ Alcotest.test_case "manual clock" `Quick test_manual_clock ]);
      ( "end to end",
        [
          Alcotest.test_case "telemetry is zero-diff" `Quick test_zero_diff;
          Alcotest.test_case "export and inspect" `Quick test_export_and_inspect;
          Alcotest.test_case "inspect counts the run's epochs" `Quick
            test_inspect_counts_run_epochs;
          Alcotest.test_case "inspect prints degraded-mode counters" `Quick
            test_inspect_prints_degraded_counters;
          Alcotest.test_case "inspect: no measured row above the epoch" `Quick
            test_inspect_children_within_epoch;
          Alcotest.test_case "inspect rejects a malformed switches.csv row" `Quick
            test_inspect_rejects_bad_switch_row;
          Alcotest.test_case "phase views agree" `Quick test_phase_views_agree;
          Alcotest.test_case "bundle bytes pinned" `Quick test_bundle_bytes_pinned;
          Alcotest.test_case "bundle reads back" `Quick test_bundle_reads_back;
          fuzz_profile;
          fuzz_trace;
          Alcotest.test_case "price = switches.csv through Delay_model" `Quick
            test_price_from_switch_rows;
        ] );
    ]
