(* Tests for dream.chaos and its supporting pieces: scripted fault
   injections, NaN-safe numeric validation, journal close/flush behaviour,
   breaker state-machine properties (qcheck), schedule generation and
   serialization, the harness determinism/differential guarantees, and the
   canary-driven shrink-to-reproducer acceptance path. *)

module Fault_model = Dream_fault.Fault_model
module Journal = Dream_recovery.Journal
module Breaker = Dream_switch.Breaker
module Codec = Dream_util.Codec
module Config = Dream_core.Config
module Controller = Dream_core.Controller
module Allocator = Dream_alloc.Allocator
module Json = Dream_obs.Json
module Schedule = Dream_chaos.Schedule
module Oracle = Dream_chaos.Oracle
module Harness = Dream_chaos.Harness
module Shrink = Dream_chaos.Shrink
module Bank = Dream_chaos.Bank

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")

(* ---- Fault_model scripted injections ---- *)

let zero_model ?(num_switches = 4) () = Fault_model.create Fault_model.zero ~num_switches

let test_scripted_crash () =
  let fm = zero_model () in
  Fault_model.schedule fm ~at:2 (Fault_model.Crash { switch = 3; downtime = 2 });
  let e1 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "epoch 1: nothing" [] e1.Fault_model.crashed;
  let e2 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "epoch 2: crash fires" [ 3 ] e2.Fault_model.crashed;
  Alcotest.(check bool) "down" true (Fault_model.is_down fm 3);
  let e3 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "epoch 3: still down" [] e3.Fault_model.recovered;
  Alcotest.(check bool) "down through downtime" true (Fault_model.is_down fm 3);
  let e4 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "epoch 4: recovers" [ 3 ] e4.Fault_model.recovered;
  Alcotest.(check bool) "back up" false (Fault_model.is_down fm 3);
  Alcotest.(check int) "consumed" 0 (Fault_model.pending_injections fm)

let test_scripted_crash_grace () =
  let fm = zero_model () in
  (* Two crashes aimed at the same switch; the second lands while the
     switch is still down and must be skipped, not extend the outage. *)
  Fault_model.schedule fm ~at:2 (Fault_model.Crash { switch = 1; downtime = 3 });
  Fault_model.schedule fm ~at:3 (Fault_model.Crash { switch = 1; downtime = 5 });
  for _ = 1 to 4 do ignore (Fault_model.begin_epoch fm) done;
  let e5 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "recovers on the first crash's clock" [ 1 ] e5.Fault_model.recovered;
  Alcotest.(check bool) "up at epoch 5" false (Fault_model.is_down fm 1)

let test_scripted_partition_heal () =
  let fm = zero_model () in
  Fault_model.schedule fm ~at:2 (Fault_model.Partition { group = 1; span = 4 });
  Fault_model.schedule fm ~at:4 (Fault_model.Heal { group = 1 });
  ignore (Fault_model.begin_epoch fm);
  let e2 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "window opens" [ 1 ] e2.Fault_model.partitioned;
  (* 4 switches, zero-spec default groups: switch 1 is in group 1. *)
  Alcotest.(check bool) "switch 1 partitioned" true (Fault_model.is_partitioned fm 1);
  ignore (Fault_model.begin_epoch fm);
  let e4 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "heal closes the window early" [ 1 ] e4.Fault_model.healed;
  Alcotest.(check bool) "reachable again" false (Fault_model.is_partitioned fm 1);
  Alcotest.(check int) "partitioned count" 0 (Fault_model.partitioned_count fm)

let test_scripted_heal_without_partition () =
  let fm = zero_model () in
  Fault_model.schedule fm ~at:1 (Fault_model.Heal { group = 0 });
  let e1 = Fault_model.begin_epoch fm in
  Alcotest.(check (list int)) "spurious heal still surfaces" [ 0 ] e1.Fault_model.healed

let test_scripted_storm_and_ctrl_crash () =
  let fm = zero_model () in
  Fault_model.schedule fm ~at:3 (Fault_model.Storm { tasks = 2 });
  Fault_model.schedule fm ~at:3 (Fault_model.Storm { tasks = 1 });
  Fault_model.schedule fm ~at:3 Fault_model.Controller_crash;
  ignore (Fault_model.begin_epoch fm);
  let e2 = Fault_model.begin_epoch fm in
  Alcotest.(check bool) "no crash yet" false e2.Fault_model.controller_crashed;
  let e3 = Fault_model.begin_epoch fm in
  Alcotest.(check int) "storms sum" 3 e3.Fault_model.storm_tasks;
  Alcotest.(check bool) "controller crash fires" true e3.Fault_model.controller_crashed

let test_scripted_noise_window () =
  let fm = zero_model () in
  Fault_model.schedule fm ~at:2
    (Fault_model.Noise { span = 2; timeout_rate = 1.0; loss_rate = 1.0; perturb_stddev = 0.0 });
  (* Survivors of a four-reading batch under this epoch's loss rate. *)
  let survivors () = Fault_model.degrade fm 0 ~keys:[| 1; 2; 3; 4 |] ~vols:(Array.make 4 1.0) 4 in
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check bool) "no noise yet" false (Fault_model.fetch_times_out fm 0);
  Alcotest.(check int) "no losses yet" 4 (survivors ());
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check bool) "timeouts forced" true (Fault_model.fetch_times_out fm 0);
  Alcotest.(check int) "losses forced" 0 (survivors ());
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check bool) "window still open" true (Fault_model.fetch_times_out fm 0);
  ignore (Fault_model.begin_epoch fm);
  Alcotest.(check bool) "window closed" false (Fault_model.fetch_times_out fm 0);
  Alcotest.(check int) "losses stop" 4 (survivors ())

let test_injection_validation () =
  let fm = zero_model () in
  ignore (Fault_model.begin_epoch fm);
  expect_invalid "past epoch" (fun () ->
      Fault_model.schedule fm ~at:1 (Fault_model.Crash { switch = 0; downtime = 1 }));
  expect_invalid "unknown switch" (fun () ->
      Fault_model.schedule fm ~at:5 (Fault_model.Crash { switch = 9; downtime = 1 }));
  expect_invalid "zero downtime" (fun () ->
      Fault_model.schedule fm ~at:5 (Fault_model.Crash { switch = 0; downtime = 0 }));
  expect_invalid "zero span" (fun () ->
      Fault_model.schedule fm ~at:5 (Fault_model.Partition { group = 0; span = 0 }));
  expect_invalid "unknown group" (fun () ->
      Fault_model.schedule fm ~at:5 (Fault_model.Heal { group = 4 }));
  expect_invalid "zero tasks" (fun () -> Fault_model.schedule fm ~at:5 (Fault_model.Storm { tasks = 0 }));
  expect_invalid "loss above 1" (fun () ->
      Fault_model.schedule fm ~at:5
        (Fault_model.Noise { span = 1; timeout_rate = 0.0; loss_rate = 1.5; perturb_stddev = 0.0 }))

let test_injection_roundtrip () =
  let stage fm =
    Fault_model.schedule fm ~at:3 (Fault_model.Crash { switch = 2; downtime = 2 });
    Fault_model.schedule fm ~at:4 Fault_model.Controller_crash;
    Fault_model.schedule fm ~at:2 (Fault_model.Partition { group = 0; span = 3 });
    Fault_model.schedule fm ~at:4 (Fault_model.Heal { group = 0 });
    Fault_model.schedule fm ~at:5 (Fault_model.Storm { tasks = 2 });
    Fault_model.schedule fm ~at:3
    (Fault_model.Noise { span = 2; timeout_rate = 0.5; loss_rate = 0.25; perturb_stddev = 0.1 })
  in
  let a = zero_model () in
  stage a;
  let b = Codec.decode Fault_model.codec (Codec.encode Fault_model.codec a) in
  Alcotest.(check int) "pending survive the roundtrip" (Fault_model.pending_injections a)
    (Fault_model.pending_injections b);
  for epoch = 1 to 8 do
    let ea = Fault_model.begin_epoch a and eb = Fault_model.begin_epoch b in
    let tag name = Printf.sprintf "epoch %d: %s" epoch name in
    Alcotest.(check (list int)) (tag "crashed") ea.Fault_model.crashed eb.Fault_model.crashed;
    Alcotest.(check (list int)) (tag "recovered") ea.Fault_model.recovered eb.Fault_model.recovered;
    Alcotest.(check bool) (tag "ctrl") ea.Fault_model.controller_crashed
      eb.Fault_model.controller_crashed;
    Alcotest.(check (list int)) (tag "partitioned") ea.Fault_model.partitioned
      eb.Fault_model.partitioned;
    Alcotest.(check (list int)) (tag "healed") ea.Fault_model.healed eb.Fault_model.healed;
    Alcotest.(check int) (tag "storms") ea.Fault_model.storm_tasks eb.Fault_model.storm_tasks
  done

(* Checkpoint text of a two-switch zero-spec model holding one injection
   of every kind (two crashes, staged out of kind order).  The blocks keep
   one kind each, in this order, and each kind keeps its staging order. *)
let injection_blocks =
  "inj_crashes 2\nat 3\nswitch 1\ndowntime 2\nat 2\nswitch 0\ndowntime 1\n\
   inj_ctrl_crashes 1\nat 4\n\
   inj_partitions 1\nat 2\ngroup 1\nspan 3\n\
   inj_heals 1\nat 4\ngroup 0\n\
   inj_storms 1\nat 5\ntasks 2\n\
   inj_noise 1\nat 3\nspan 2\ntimeout_rate 0x1p-1\nloss_rate 0x1p-2\n\
   perturb_stddev 0x1.999999999999ap-4\n"

let test_injection_emit_pinned () =
  let fm = zero_model ~num_switches:2 () in
  Fault_model.schedule fm ~at:3
    (Fault_model.Noise { span = 2; timeout_rate = 0.5; loss_rate = 0.25; perturb_stddev = 0.1 });
  Fault_model.schedule fm ~at:5 (Fault_model.Storm { tasks = 2 });
  Fault_model.schedule fm ~at:4 (Fault_model.Heal { group = 0 });
  Fault_model.schedule fm ~at:2 (Fault_model.Partition { group = 1; span = 3 });
  Fault_model.schedule fm ~at:4 Fault_model.Controller_crash;
  Fault_model.schedule fm ~at:3 (Fault_model.Crash { switch = 1; downtime = 2 });
  Fault_model.schedule fm ~at:2 (Fault_model.Crash { switch = 0; downtime = 1 });
  let text = Codec.encode Fault_model.codec fm in
  let tail = String.length injection_blocks in
  Alcotest.(check string) "injection blocks" injection_blocks
    (String.sub text (String.length text - tail) tail);
  Alcotest.(check string) "whole section" "132f2935cf1965f7ba0d36ca303808d5"
    (Digest.to_hex (Digest.string text));
  (* A straggler line is a flag: any other value is refused at its line. *)
  let flagged =
    String.concat "\n"
      (List.map
         (fun l -> if l = "straggler 0" then "straggler 5" else l)
         (String.split_on_char '\n' text))
  in
  match Codec.decode Fault_model.codec flagged with
  | _ -> Alcotest.fail "straggler 5 accepted"
  | exception Codec.Parse_error e ->
    Alcotest.(check string) "straggler refused" "field \"straggler\": invalid bool \"5\""
      e.Codec.reason

(* Any valid timeline, staged on a model with organic crashes and
   partitions too, survives emit/parse: the restored model emits the same
   text and fires the same events through the horizon.  A few warm-up
   epochs first, so the checkpoint also carries spent injections. *)
let gen_injection =
  QCheck.Gen.(
    let rate = float_bound_inclusive 1.0 in
    oneof
      [
        map2
          (fun switch downtime -> Fault_model.Crash { switch; downtime })
          (int_bound 3) (int_range 1 6);
        return Fault_model.Controller_crash;
        map2
          (fun group span -> Fault_model.Partition { group; span })
          (int_bound 3) (int_range 1 8);
        map (fun group -> Fault_model.Heal { group }) (int_bound 3);
        map (fun tasks -> Fault_model.Storm { tasks }) (int_range 1 4);
        map3
          (fun span (timeout_rate, loss_rate) perturb_stddev ->
            Fault_model.Noise { span; timeout_rate; loss_rate; perturb_stddev })
          (int_range 1 6) (pair rate rate) (float_bound_inclusive 0.3);
      ])

let prop_injections_roundtrip =
  let horizon = 24 in
  QCheck.Test.make ~name:"staged injections survive emit/parse" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (int_bound 8) (list_size (int_bound 12) (pair (int_range 1 horizon) gen_injection))))
    (fun (warmup, staged) ->
      let spec =
        { (Fault_model.uniform ~seed:3 0.2) with
          Fault_model.partition_rate = 0.1; storm_rate = 0.1 }
      in
      let a = Fault_model.create spec ~num_switches:4 in
      List.iter (fun (at, inj) -> Fault_model.schedule a ~at inj) staged;
      for _ = 1 to warmup do ignore (Fault_model.begin_epoch a) done;
      let emit = Codec.encode Fault_model.codec in
      let text = emit a in
      let b = Codec.decode Fault_model.codec text in
      String.equal text (emit b)
      && Fault_model.pending_injections a = Fault_model.pending_injections b
      && List.for_all
           (fun _ ->
             Fault_model.begin_epoch a = Fault_model.begin_epoch b
             && Fault_model.fetch_times_out a 0 = Fault_model.fetch_times_out b 0)
           (List.init (horizon - warmup) Fun.id))

(* ---- NaN / out-of-range numeric validation ---- *)

let test_nan_rates_rejected () =
  expect_invalid "uniform nan" (fun () -> Fault_model.uniform Float.nan);
  expect_invalid "uniform negative" (fun () -> Fault_model.uniform (-0.1));
  expect_invalid "adversity nan" (fun () -> Fault_model.adversity Float.nan);
  expect_invalid "adversity above 1" (fun () -> Fault_model.adversity 1.5);
  expect_invalid "spec nan perturb" (fun () ->
      Fault_model.create
        { Fault_model.zero with Fault_model.perturb_stddev = Float.nan }
        ~num_switches:4)

let test_degraded_config_rejected () =
  let create degraded =
    Controller.create
      ~config:{ Config.default with Config.degraded = Some degraded }
      ~strategy:Allocator.Equal ~num_switches:2 ~capacity:64
  in
  expect_invalid "nan deadline" (fun () -> create { Config.deadline_fraction = Float.nan });
  expect_invalid "zero deadline" (fun () -> create { Config.deadline_fraction = 0.0 });
  expect_invalid "deadline above 1" (fun () -> create { Config.deadline_fraction = 1.5 });
  ignore (create Config.default_degraded);
  let create_interval allocation_interval =
    Controller.create
      ~config:{ Config.default with Config.allocation_interval }
      ~strategy:Allocator.Equal ~num_switches:2 ~capacity:64
  in
  expect_invalid "zero allocation interval" (fun () -> create_interval 0);
  expect_invalid "negative allocation interval" (fun () -> create_interval (-2));
  ignore (create_interval 1);
  let create_budget install_budget =
    Controller.create
      ~config:{ Config.default with Config.install_budget }
      ~strategy:Allocator.Equal ~num_switches:2 ~capacity:64
  in
  expect_invalid "zero install budget" (fun () -> create_budget (Some 0));
  expect_invalid "negative install budget" (fun () -> create_budget (Some (-3)));
  ignore (create_budget (Some 1))

(* A drop threshold below 1 would let a rich task, whose poor streak was
   just reset to 0, be dropped from any congested switch. *)
let test_drop_threshold_rejected () =
  let create drop_threshold =
    Controller.create
      ~config:{ Config.default with Config.drop_threshold }
      ~strategy:Allocator.Equal ~num_switches:2 ~capacity:64
  in
  expect_invalid "zero drop threshold" (fun () -> create 0);
  expect_invalid "negative drop threshold" (fun () -> create (-1));
  ignore (create 1)

(* ---- Journal flush / close ---- *)

let entry epoch switch = Journal.Switch_down { epoch; switch }

let test_journal_close_idempotent () =
  let sink = Journal.memory () in
  Journal.append sink (entry 1 7);
  Journal.flush sink;
  Journal.close sink;
  Journal.close sink;
  expect_invalid "append after close" (fun () -> Journal.append sink (entry 2 8));
  expect_invalid "flush after close" (fun () -> Journal.flush sink);
  expect_invalid "truncate after close" (fun () -> Journal.truncate sink)

let test_journal_file_flush () =
  let path = Filename.temp_file "dream_chaos_journal" ".wal" in
  let sink = Journal.file path in
  Journal.append sink (entry 1 1);
  Journal.append sink (entry 2 2);
  Journal.flush sink;
  (* Read back while the sink is still open: flush must have pushed both
     entries to disk, parseable and in order. *)
  let read () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Journal.entries_of_string (read ()) with
  | Ok entries -> Alcotest.(check int) "flushed while open" 2 (List.length entries)
  | Error msg -> Alcotest.fail ("flushed journal unparseable: " ^ msg));
  Journal.append sink (entry 3 3);
  Journal.close sink;
  (match Journal.entries_of_string (read ()) with
  | Ok entries -> Alcotest.(check int) "complete after close" 3 (List.length entries)
  | Error msg -> Alcotest.fail ("closed journal unparseable: " ^ msg));
  Sys.remove path

(* ---- Breaker properties (qcheck) ---- *)

type outcome_op = Success | Failure | Hint

(* An epoch is what the controller does each tick: one [begin_epoch], then
   some sequence of recorded outcomes and heal hints. *)
let gen_epochs =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (list_size (int_bound 4) (map (function 0 -> Failure | 1 -> Success | _ -> Hint) (int_bound 2))))

let apply_outcome br = function
  | Success -> Breaker.record_success br
  | Failure -> Breaker.record_failure br
  | Hint -> Breaker.hint_probe br

(* The cooldown every breaker runs, as a checkpoint's [build] section
   writes it. *)
let cooldown =
  let doc =
    Controller.snapshot
      (Controller.create ~config:Config.default ~strategy:Allocator.Equal ~num_switches:2
         ~capacity:64)
  in
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "breaker_cooldown"; v ] -> Some (int_of_string v)
      | _ -> None)
    (String.split_on_char '\n' doc)
  |> Option.get

let prop_transitions_legal =
  QCheck.Test.make ~name:"observed epoch transitions are legal" ~count:500
    (QCheck.make gen_epochs) (fun epochs ->
      let br = Breaker.create () in
      let last = ref (Breaker.state br) in
      List.for_all
        (fun outcomes ->
          Breaker.begin_epoch br;
          List.iter (apply_outcome br) outcomes;
          let now = Breaker.state br in
          let ok = Breaker.legal_transition ~from:!last ~into:now in
          last := now;
          ok)
        epochs)

let prop_probe_budget_never_lost =
  QCheck.Test.make ~name:"an Open breaker always probes within its cooldown" ~count:500
    (QCheck.make gen_epochs) (fun epochs ->
      let br = Breaker.create () in
      List.iter
        (fun outcomes ->
          Breaker.begin_epoch br;
          List.iter (apply_outcome br) outcomes)
        epochs;
      match Breaker.state br with
      | Breaker.Closed | Breaker.Half_open -> true
      | Breaker.Open ->
        let rec probe_within n =
          if n = 0 then false
          else begin
            Breaker.begin_epoch br;
            match Breaker.state br with
            | Breaker.Half_open -> true
            | Breaker.Open -> probe_within (n - 1)
            | Breaker.Closed -> false
          end
        in
        probe_within (cooldown + 1))

let prop_emit_parse_equivalent =
  QCheck.Test.make ~name:"emit/parse preserves breaker behaviour" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_epochs gen_epochs)) (fun (prefix, suffix) ->
      let br = Breaker.create () in
      List.iter
        (fun outcomes ->
          Breaker.begin_epoch br;
          List.iter (apply_outcome br) outcomes)
        prefix;
      let copy = Codec.decode Breaker.codec (Codec.encode Breaker.codec br) in
      Breaker.state copy = Breaker.state br
      && List.for_all
           (fun outcomes ->
             Breaker.begin_epoch br;
             Breaker.begin_epoch copy;
             List.iter (fun op -> apply_outcome br op; apply_outcome copy op) outcomes;
             Breaker.state copy = Breaker.state br)
           suffix)

(* ---- Schedules ---- *)

let gen_args = ("seed", 1234)

let generate seed =
  Schedule.generate ~seed ~num_switches:Harness.num_switches ~horizon:48 ~events:12

let schedule_string s = Json.to_string (Json.encode Schedule.json s)

let test_schedule_deterministic () =
  let _, seed = gen_args in
  Alcotest.(check string) "same seed, same schedule" (schedule_string (generate seed))
    (schedule_string (generate seed));
  Alcotest.(check bool) "different seed, different schedule" false
    (String.equal (schedule_string (generate seed)) (schedule_string (generate (seed + 1))))

let test_schedule_json_roundtrip () =
  let s = generate 99 in
  match Json.decode Schedule.json (Json.encode Schedule.json s) with
  | Ok s' -> Alcotest.(check string) "roundtrip" (schedule_string s) (schedule_string s')
  | Error msg -> Alcotest.fail ("decode failed: " ^ msg)

(* A reproducer as the bank writes it, around [sched]. *)
let reproducer (canary, sched) =
  Bank.reproducer_to_string
    {
      Bank.f_schedule = sched;
      f_canary = canary;
      f_first = { Oracle.epoch = 6; code = "invariant:allocator-conservation"; detail = "switch 0" };
      f_minimized = sched;
      f_stats = { Shrink.runs = 11; initial_events = 12; final_events = 12 };
    }

(* A corrupt copy of a reproducer around the schedule of seed 4, which
   holds all eight event kinds. *)
let fuzz_reproducer =
  Json_fuzz.property ~name:"reproducer corruption" ~read:Bank.reproducer_of_string
    ~write:reproducer
    (lazy [ reproducer (true, generate 4) ])

(* A reproducer names no member twice, and the key-path walk of its
   schedule (the reproducer's own description is private to Bank) names
   the members the file holds there. *)
let test_key_paths_match_reproducer () =
  let sched = generate 4 in
  match Json.of_string (reproducer (true, sched)) with
  | Ok (Json.Obj members as doc) ->
    Alcotest.(check (list string)) "no member named twice" [] (Key_paths.repeated_members "" doc);
    Alcotest.(check (list string)) "schedule member paths"
      (Key_paths.paths_of_json "" (List.assoc "schedule" members))
      (Key_paths.key_paths ~json:true Schedule.json sched)
  | Ok _ -> Alcotest.fail "a reproducer is an object"
  | Error e -> Alcotest.fail e

(* Seed 4 is the first whose 12-event schedule holds all eight kinds. *)
let test_schedule_pinned () =
  let s = generate 4 in
  Alcotest.(check (list string)) "pp_event"
    [
      "@11 torn_tail drop=37";
      "@11 storm tasks=2";
      "@20 partition group=3 span=5";
      "@26 partition group=1 span=7";
      "@27 partition group=0 span=8";
      "@27 heal_hint group=2";
      "@30 noise span=3 timeout=0.77 loss=0.01 perturb=0.10";
      "@31 switch_crash sw=0 downtime=5";
      "@37 checkpoint";
      "@43 storm tasks=1";
      "@43 storm tasks=3";
      "@47 controller_crash";
    ]
    (List.map (Format.asprintf "%a" Schedule.pp_event) s.Schedule.events);
  Alcotest.(check string) "to_json"
    "{\"seed\":4,\"horizon\":48,\"events\":[{\"kind\":\"torn_tail\",\"at\":11,\"drop\":37},\
     {\"kind\":\"storm\",\"at\":11,\"tasks\":2},{\"kind\":\"partition\",\"at\":20,\"group\":3,\"span\":5},\
     {\"kind\":\"partition\",\"at\":26,\"group\":1,\"span\":7},\
     {\"kind\":\"partition\",\"at\":27,\"group\":0,\"span\":8},\
     {\"kind\":\"heal_hint\",\"at\":27,\"group\":2},\
     {\"kind\":\"noise\",\"at\":30,\"span\":3,\"timeout_rate\":0.76779558188247776,\
     \"loss_rate\":0.014193074302777164,\"perturb\":0.10121483963881155},\
     {\"kind\":\"switch_crash\",\"at\":31,\"switch\":0,\"downtime\":5},\
     {\"kind\":\"checkpoint\",\"at\":37},{\"kind\":\"storm\",\"at\":43,\"tasks\":1},\
     {\"kind\":\"storm\",\"at\":43,\"tasks\":3},{\"kind\":\"controller_crash\",\"at\":47}]}"
    (schedule_string s)

let test_schedule_validate () =
  let bad =
    { Schedule.seed = 1; horizon = 48;
      events = [ Schedule.Fault { at = 3; fault = Fault_model.Crash { switch = 99; downtime = 1 } } ] }
  in
  (match Schedule.validate ~num_switches:Harness.num_switches bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range switch accepted");
  match Schedule.validate ~num_switches:Harness.num_switches (generate 5) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("generated schedule rejected: " ^ msg)

let test_shrink_event_strictly_smaller () =
  let shrinks_of e = Schedule.shrink_event e in
  let at_of = function
    | Schedule.Fault { at; _ } | Schedule.Torn_tail { at; _ } | Schedule.Checkpoint { at } -> at
  in
  List.iter
    (fun e ->
      List.iter (fun v -> Alcotest.(check int) "same epoch" (at_of e) (at_of v)) (shrinks_of e))
    (generate 7).Schedule.events;
  Alcotest.(check (list int)) "atomic events don't shrink" []
    (List.map at_of (shrinks_of (Schedule.Fault { at = 4; fault = Fault_model.Controller_crash })))

(* ---- Harness: determinism and the differential oracle ---- *)

let test_harness_differential () =
  let empty = { Schedule.seed = 42; horizon = Harness.default_horizon; events = [] } in
  let r = Harness.run empty in
  Alcotest.(check int) "no violations" 0 (List.length r.Harness.violations);
  Alcotest.(check string) "empty schedule is byte-identical to the seed run"
    (Harness.reference_digest ~seed:42 ~horizon:Harness.default_horizon)
    r.Harness.digest

let test_harness_deterministic () =
  let sched = generate 4242 in
  let a = Harness.run sched and b = Harness.run sched in
  Alcotest.(check string) "same digest" a.Harness.digest b.Harness.digest;
  Alcotest.(check int) "same violation count" (List.length a.Harness.violations)
    (List.length b.Harness.violations);
  Alcotest.(check int) "no violations on main" 0 (List.length a.Harness.violations)

let test_small_bank_clean () =
  let o = Bank.run ~schedules:3 ~seed:42 () in
  Alcotest.(check int) "no violations" 0 o.Bank.violations;
  Alcotest.(check bool) "differential holds" true o.Bank.differential_ok;
  Alcotest.(check int) "no failures" 0 (List.length o.Bank.failures)

(* ---- The canary: plant the bug, catch it, shrink it, replay it ---- *)

let canary_seed = 364128774783586872

let test_canary_shrinks_to_reproducer () =
  let sched =
    Schedule.generate ~seed:canary_seed ~num_switches:Harness.num_switches
      ~horizon:Harness.default_horizon ~events:200
  in
  Alcotest.(check int) "200-event schedule" 200 (List.length sched.Schedule.events);
  let r = Harness.run ~canary:true sched in
  Alcotest.(check bool) "canary fired" true r.Harness.canary_fired;
  Alcotest.(check bool) "oracles caught it" true (Harness.failed r);
  let fails s = Harness.failed (Harness.run ~canary:true s) in
  let minimized, stats = Shrink.minimize ~fails sched in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 5 events (got %d in %d runs)" stats.Shrink.final_events
       stats.Shrink.runs)
    true
    (stats.Shrink.final_events <= 5);
  (* The minimized schedule must still be a replayable reproducer, and it
     must be the canary (not some organic failure) that it reproduces. *)
  let replay = Harness.run ~canary:true minimized in
  Alcotest.(check bool) "replay still fails" true (Harness.failed replay);
  Alcotest.(check bool) "replay without the canary passes" false
    (Harness.failed (Harness.run ~canary:false minimized));
  (* Reproducer file roundtrip. *)
  let failure =
    match replay.Harness.violations with
    | first :: _ ->
      { Bank.f_schedule = sched; f_canary = true; f_first = first; f_minimized = minimized;
        f_stats = stats }
    | [] -> Alcotest.fail "unreachable: replay failed with no violations"
  in
  match Bank.reproducer_of_string (Bank.reproducer_to_string failure) with
  | Ok (canary, sched') ->
    Alcotest.(check bool) "canary flag survives" true canary;
    Alcotest.(check string) "schedule survives" (schedule_string minimized)
      (schedule_string sched')
  | Error msg -> Alcotest.fail ("reproducer roundtrip failed: " ^ msg)

let () =
  Alcotest.run "dream.chaos"
    [
      ( "injections",
        [
          Alcotest.test_case "scripted crash" `Quick test_scripted_crash;
          Alcotest.test_case "crash grace" `Quick test_scripted_crash_grace;
          Alcotest.test_case "partition + heal" `Quick test_scripted_partition_heal;
          Alcotest.test_case "spurious heal" `Quick test_scripted_heal_without_partition;
          Alcotest.test_case "storm + controller crash" `Quick test_scripted_storm_and_ctrl_crash;
          Alcotest.test_case "noise window" `Quick test_scripted_noise_window;
          Alcotest.test_case "validation" `Quick test_injection_validation;
          Alcotest.test_case "emit/parse roundtrip" `Quick test_injection_roundtrip;
          Alcotest.test_case "emit pinned" `Quick test_injection_emit_pinned;
          QCheck_alcotest.to_alcotest prop_injections_roundtrip;
        ] );
      ( "validation",
        [
          Alcotest.test_case "NaN and negative rates" `Quick test_nan_rates_rejected;
          Alcotest.test_case "degraded config" `Quick test_degraded_config_rejected;
          Alcotest.test_case "drop threshold" `Quick test_drop_threshold_rejected;
        ] );
      ( "journal",
        [
          Alcotest.test_case "close is idempotent and final" `Quick test_journal_close_idempotent;
          Alcotest.test_case "file sink flushes" `Quick test_journal_file_flush;
        ] );
      ( "breaker-properties",
        [
          QCheck_alcotest.to_alcotest prop_transitions_legal;
          QCheck_alcotest.to_alcotest prop_probe_budget_never_lost;
          QCheck_alcotest.to_alcotest prop_emit_parse_equivalent;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "deterministic generation" `Quick test_schedule_deterministic;
          Alcotest.test_case "json roundtrip" `Quick test_schedule_json_roundtrip;
          fuzz_reproducer;
          Alcotest.test_case "key paths match the reproducer" `Quick
            test_key_paths_match_reproducer;
          Alcotest.test_case "pp_event and to_json pinned" `Quick test_schedule_pinned;
          Alcotest.test_case "validate bounds" `Quick test_schedule_validate;
          Alcotest.test_case "shrink variants" `Quick test_shrink_event_strictly_smaller;
        ] );
      ( "harness",
        [
          Alcotest.test_case "differential vs seed run" `Quick test_harness_differential;
          Alcotest.test_case "deterministic runs" `Quick test_harness_deterministic;
          Alcotest.test_case "small bank is clean" `Quick test_small_bank_clean;
        ] );
      ( "canary",
        [
          Alcotest.test_case "shrink to <= 5 events" `Slow test_canary_shrinks_to_reproducer;
        ] );
    ]
