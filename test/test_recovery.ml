(* Tests for crash consistency: journal encode/decode (torn tails,
   corruption), checkpoint/restore bit-identical resumption, fail-over
   recovery with journal replay and switch reconciliation, and the runtime
   invariant checker. *)

module Rng = Dream_util.Rng
module Codec = Dream_util.Codec
module Prefix = Prefix_ops
module Topology = Dream_traffic.Topology
module Source = Dream_traffic.Source
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Journal = Dream_recovery.Journal
module Invariant = Dream_recovery.Invariant
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller
module Crash_recovery = Dream_sim.Crash_recovery
module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive

(* ---- journal codec ---- *)

let sample_entries () =
  let rng = Rng.create 3 in
  let filter = Prefix.nth_descendant Prefix.root ~length:12 17 in
  let topology = Topology.create rng ~filter ~num_switches:4 ~switches_per_task:4 in
  let spec = Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 () in
  [
    Journal.Admit
      {
        epoch = 3;
        task_id = 1;
        spec;
        topology;
        duration = 40;
        source = "line one\nline two [with] brackets";
      };
    Journal.Reject { epoch = 4; task_id = 2; kind = Task_spec.Change_detection };
    Journal.Alloc { epoch = 4; task_id = 1; switch = 0; alloc = 64 };
    Journal.Switch_down { epoch = 7; switch = 3 };
    Journal.Switch_up { epoch = 9; switch = 3 };
    Journal.Task_end
      {
        epoch = 12;
        task_id = 1;
        kind = Task_spec.Heavy_hitter;
        cause = Journal.Dropped;
        arrived_at = 3;
        active_epochs = 9;
        satisfaction = 0.5;
        mean_accuracy = 0.75;
      };
  ]

let encode_all entries = String.concat "" (List.map Journal.entry_to_string entries)

let epoch_of = function
  | Journal.Admit { epoch; _ }
  | Journal.Reject { epoch; _ }
  | Journal.Alloc { epoch; _ }
  | Journal.Switch_down { epoch; _ }
  | Journal.Switch_up { epoch; _ }
  | Journal.Task_end { epoch; _ } ->
    epoch

let test_journal_roundtrip () =
  let entries = sample_entries () in
  let s = encode_all entries in
  match Journal.entries_of_string s with
  | Error msg -> Alcotest.failf "journal did not parse: %s" msg
  | Ok decoded ->
    Alcotest.(check int) "entry count" (List.length entries) (List.length decoded);
    (* Compare canonically re-encoded forms: structural equality of
       topologies is not meaningful across parse. *)
    Alcotest.(check string) "canonical round trip" s (encode_all decoded);
    Alcotest.(check (list int)) "epochs preserved"
      (List.map epoch_of entries)
      (List.map epoch_of decoded)

let test_journal_torn_tail () =
  let entries = sample_entries () in
  let s = encode_all entries in
  let last = Journal.entry_to_string (List.nth entries (List.length entries - 1)) in
  (* Cut into the final entry: classic crash-while-appending artifact. *)
  let torn = String.sub s 0 (String.length s - (String.length last / 2) - 1) in
  match Journal.entries_of_string torn with
  | Error msg -> Alcotest.failf "torn tail must be tolerated: %s" msg
  | Ok decoded ->
    Alcotest.(check int) "torn final entry dropped"
      (List.length entries - 1)
      (List.length decoded)

let test_journal_torn_tail_every_offset () =
  (* Exhaustive crash-point fuzz: a crash can truncate the append at any
     byte, so every cut across the last two entries must parse cleanly to
     exactly the wholly-contained prefix of the journal. *)
  let entries = sample_entries () in
  let s = encode_all entries in
  let total = String.length s in
  let sizes = List.map (fun e -> String.length (Journal.entry_to_string e)) entries in
  (* Offset just past each complete entry, ascending. *)
  let boundaries =
    List.rev (fst (List.fold_left (fun (acc, off) n -> ((off + n) :: acc, off + n)) ([], 0) sizes))
  in
  let complete_before cut = List.length (List.filter (fun b -> b <= cut) boundaries) in
  let last_two =
    match List.rev sizes with
    | a :: b :: _ -> a + b
    | _ -> Alcotest.fail "need at least two sample entries"
  in
  for cut = total - last_two to total do
    match Journal.entries_of_string (String.sub s 0 cut) with
    | Error msg -> Alcotest.failf "cut at byte %d/%d must be tolerated: %s" cut total msg
    | Ok decoded ->
      Alcotest.(check int)
        (Printf.sprintf "entries recovered at cut %d/%d" cut total)
        (complete_before cut) (List.length decoded)
  done

let test_journal_corruption_rejected () =
  let entries = sample_entries () in
  let s =
    match entries with
    | e1 :: rest -> Journal.entry_to_string e1 ^ "garbage line\n" ^ encode_all rest
    | [] -> assert false
  in
  (match Journal.entries_of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-journal corruption must be rejected");
  (* A well-formed line holding a value the task spec refuses. *)
  let bad_spec =
    String.split_on_char '\n' (encode_all entries)
    |> List.map (fun l -> if l = "leaf_length 24" then "leaf_length 99" else l)
    |> String.concat "\n"
  in
  (match Journal.entries_of_string bad_spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an out-of-range spec value must be rejected"
  | exception e -> Alcotest.failf "journal decode raised %s" (Printexc.to_string e));
  (* The journal has no magic: an admit entry of the v4 format, which wrote
     a drop priority line after the duration, is refused at that line,
     where this format reads the spec's section marker. *)
  let v4 =
    String.split_on_char '\n' (encode_all entries)
    |> List.concat_map (fun l -> if l = "duration 40" then [ l; "drop_priority 1" ] else [ l ])
    |> String.concat "\n"
  in
  match Journal.entries_of_string v4 with
  | Error e ->
    Alcotest.(check string) "a v4 admit entry is refused at its drop_priority line"
      {|line 5: expected section [spec], got "drop_priority 1"|} e
  | Ok _ -> Alcotest.fail "a v4 admit entry must be rejected"

let test_journal_file_sink () =
  let path = Filename.temp_file "dream" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink = Journal.file path in
      let entries = sample_entries () in
      List.iter (Journal.append sink) entries;
      Alcotest.(check int) "length" (List.length entries) (Journal.length sink);
      (* The on-disk bytes parse back to the same journal. *)
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Journal.entries_of_string contents with
      | Error msg -> Alcotest.failf "file journal did not parse: %s" msg
      | Ok decoded ->
        Alcotest.(check string) "file matches memory" (encode_all entries) (encode_all decoded));
      Journal.truncate sink;
      Alcotest.(check int) "truncated" 0 (Journal.length sink);
      Journal.close sink)

(* Every entry survives encode/decode: the canonical re-encoding and the
   epoch match, for all six constructors. *)
let gen_entry =
  let open QCheck.Gen in
  let small = int_bound 100_000 in
  let kind = oneofl Task_spec.all_kinds in
  let admit =
    map3
      (fun (epoch, task_id, duration) (seed, spread, leaf) source ->
        let rng = Rng.create seed in
        let filter = Prefix.nth_descendant Prefix.root ~length:12 (seed mod 4096) in
        let topology =
          Topology.create rng ~filter ~num_switches:8 ~switches_per_task:(1 lsl spread)
        in
        let spec =
          Task_spec.make
            ~kind:(List.nth Task_spec.all_kinds (seed mod 3))
            ~filter ~leaf_length:(13 + leaf) ~threshold:8.0 ()
        in
        Journal.Admit { epoch; task_id; spec; topology; duration; source })
      (triple small small small)
      (triple small (int_bound 3) (int_bound 19))
      (string_size (int_bound 40))
  in
  oneof
    [
      admit;
      map3 (fun epoch task_id kind -> Journal.Reject { epoch; task_id; kind }) small small kind;
      map2
        (fun (epoch, task_id) (switch, alloc) -> Journal.Alloc { epoch; task_id; switch; alloc })
        (pair small small) (pair small small);
      map2 (fun epoch switch -> Journal.Switch_down { epoch; switch }) small small;
      map2 (fun epoch switch -> Journal.Switch_up { epoch; switch }) small small;
      map3
        (fun (epoch, task_id, kind) (dropped, arrived_at, active_epochs)
             (satisfaction, mean_accuracy) ->
          Journal.Task_end
            {
              epoch;
              task_id;
              kind;
              cause = (if dropped then Journal.Dropped else Journal.Completed);
              arrived_at;
              active_epochs;
              satisfaction;
              mean_accuracy;
            })
        (triple small small kind) (triple bool small small)
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0));
    ]

let prop_journal_roundtrip =
  QCheck.Test.make ~name:"every entry round-trips" ~count:500
    (QCheck.make ~print:Journal.entry_to_string gen_entry) (fun e ->
      let s = Journal.entry_to_string e in
      match Journal.entries_of_string s with
      | Ok [ d ] ->
        String.equal s (Journal.entry_to_string d)
        && epoch_of d = epoch_of e
        && Journal.entry_name d = Journal.entry_name e
      | Ok _ | Error _ -> false)

(* ---- helpers: a small controller workload ---- *)

let mk_controller ?(config = Config.default) ?(capacity = 128) ?(num_switches = 4)
    ?(strategy = Allocator.Dream Dream_allocator.default_config) () =
  Controller.create ~config ~strategy ~num_switches ~capacity

let submit_task controller rng ~filter_index ~duration =
  let filter = Prefix.nth_descendant Prefix.root ~length:12 (filter_index * 53) in
  let num_switches = Controller.num_switches controller in
  let topology =
    Topology.create rng ~filter ~num_switches ~switches_per_task:(min 4 num_switches)
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
  in
  let generator =
    Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
  in
  Controller.submit controller ~spec ~topology
    ~source:(Dream_traffic.Source.of_generator generator)
    ~duration

let populated_controller ?config ?num_switches () =
  let controller = mk_controller ?config ?num_switches () in
  let rng = Rng.create 21 in
  for i = 0 to 7 do
    ignore (submit_task controller rng ~filter_index:i ~duration:40)
  done;
  controller

(* A scenario small enough to drive for a few dozen epochs per test case,
   under 5% uniform faults so crashes and recoveries are journalled next
   to admissions, allocations and task ends. *)
let small_scenario seed =
  {
    Scenario.default with
    Scenario.seed;
    num_tasks = 12;
    num_switches = 4;
    switches_per_task = 4;
    capacity = 256;
    arrival_window = 30;
    mean_duration = 20;
    total_epochs = 60;
  }

let faulty_config seed = { Config.default with Config.faults = Some (Fault_model.uniform ~seed 0.05) }

(* Seeded truncations and byte flips of a real journal: parsing never
   raises, and whatever parses re-encodes to a journal that parses back to
   itself. *)
let test_journal_fuzz () =
  let sink = Journal.memory () in
  let drive =
    Drive.create ~journal:sink ~config:(faulty_config 3)
      ~strategy:(Allocator.Dream Dream_allocator.default_config) (small_scenario 3)
  in
  for _ = 1 to 20 do
    Drive.step drive
  done;
  let full = encode_all (Journal.entries sink) in
  let len = String.length full in
  let rng = Rng.create 29 in
  let check name mutated =
    match Journal.entries_of_string mutated with
    | exception e -> Alcotest.failf "%s: parse raised %s" name (Printexc.to_string e)
    | Error _ -> ()
    | Ok parsed -> (
      let s = encode_all parsed in
      match Journal.entries_of_string s with
      | Ok again -> Alcotest.(check string) (name ^ " re-parses to itself") s (encode_all again)
      | Error e -> Alcotest.failf "%s: the re-encoding does not parse: %s" name e)
  in
  for k = 1 to 200 do
    check (Printf.sprintf "truncation %d" k) (String.sub full 0 (Rng.int rng len));
    let flipped = Bytes.of_string full in
    let i = Rng.int rng len in
    Bytes.set flipped i (Char.chr ((Char.code (Bytes.get flipped i) + 1 + Rng.int rng 255) land 255));
    check (Printf.sprintf "byte flip %d" k) (Bytes.to_string flipped)
  done

(* ---- snapshot / restore ---- *)

let finish controller =
  Controller.finalize controller;
  (Controller.records controller, Controller.summary controller)

let test_snapshot_restore_bit_identical_generic config =
  (* The round-trip property: continuing from a restored snapshot must be
     bit-identical to never having stopped. *)
  let original = populated_controller ~config () in
  Controller.run original ~epochs:25;
  let doc = Controller.snapshot original in
  let restored =
    match Controller.restore doc with
    | Ok c -> c
    | Error msg -> Alcotest.failf "restore failed: %s" msg
  in
  Alcotest.(check int) "same epoch" (Controller.epoch original) (Controller.epoch restored);
  Controller.run original ~epochs:25;
  Controller.run restored ~epochs:25;
  (* Strongest equality first: the full serialized states coincide. *)
  Alcotest.(check bool) "final snapshots byte-identical" true
    (Controller.snapshot original = Controller.snapshot restored);
  let records_a, summary_a = finish original in
  let records_b, summary_b = finish restored in
  Alcotest.(check bool) "same records" true (records_a = records_b);
  Alcotest.(check bool) "same summary" true (summary_a = summary_b);
  Alcotest.(check int) "same rule churn"
    (Controller.total_rules_installed original)
    (Controller.total_rules_installed restored)

(* A restored task has not reported: [last_report] is [None] until its
   first tick, whose report is the list-based oracle's on the counters
   that tick fetched.  The oracle replays the fetch on a second parse of
   the same checkpoint: without faults a fetch reads only the checkpointed
   TCAMs and the task's own traffic source. *)
let test_last_report_after_restore () =
  let original = populated_controller () in
  Controller.run original ~epochs:12;
  let doc = Controller.snapshot original in
  let restored =
    match Controller.restore doc with
    | Ok c -> c
    | Error msg -> Alcotest.failf "restore failed: %s" msg
  in
  let ids = Controller.active_task_ids restored in
  Alcotest.(check bool) "tasks running" true (ids <> []);
  List.iter
    (fun task_id ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d: no report right after restore" task_id)
        true
        (Controller.last_report restored ~task_id = None))
    ids;
  Controller.tick restored;
  let cp =
    match Dream_core.Checkpoint.parse doc with
    | Ok cp -> cp
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  let registry = Dream_obs.Registry.create () in
  let fetch =
    Dream_core.Fetch.create ~config:cp.Dream_core.Checkpoint.config
      ~switches:cp.Dream_core.Checkpoint.switches
      ~breakers:None ~faults:None ~tallies:(Metrics.Tallies.of_registry registry) ~registry
      ~trace:None
  in
  let epoch = cp.Dream_core.Checkpoint.epoch in
  Dream_core.Fetch.begin_epoch fetch ~epoch ~healed:[];
  let same_item (a : Dream_tasks.Report.item) (b : Dream_tasks.Report.item) =
    Prefix.equal a.Dream_tasks.Report.prefix b.Dream_tasks.Report.prefix
    && Int64.equal
         (Int64.bits_of_float a.Dream_tasks.Report.magnitude)
         (Int64.bits_of_float b.Dream_tasks.Report.magnitude)
  in
  List.iter
    (fun (r : Dream_core.Runtime.t) ->
      let task = r.Dream_core.Runtime.task and task_id = Dream_core.Runtime.id r in
      ignore (Dream_core.Fetch.read fetch r (Dream_core.Fetch.draw fetch r));
      let expected, _ =
        Reference_estimate.report_and_estimate (Dream_tasks.Task.monitor task)
          ~allocations:(Dream_tasks.Task.allocations task) ~epoch
      in
      match Controller.last_report restored ~task_id with
      | None -> Alcotest.failf "task %d: no report after one tick" task_id
      | Some report ->
        Alcotest.(check int) (Printf.sprintf "task %d: epoch" task_id) epoch
          report.Dream_tasks.Report.epoch;
        Alcotest.(check bool)
          (Printf.sprintf "task %d: report = oracle's" task_id)
          true
          (report.Dream_tasks.Report.kind = expected.Dream_tasks.Report.kind
          && List.equal same_item report.Dream_tasks.Report.items
               expected.Dream_tasks.Report.items))
    cp.Dream_core.Checkpoint.runtimes

let test_snapshot_restore_bit_identical () =
  test_snapshot_restore_bit_identical_generic Config.default

let fault_spec =
  {
    Fault_model.zero with
    Fault_model.seed = 5;
    crash_rate = 0.1;
    fetch_timeout_rate = 0.2;
    counter_loss_rate = 0.05;
    install_failure_rate = 0.05;
    perturb_stddev = 0.02;
  }

let test_snapshot_restore_with_faults () =
  (* The fault model's RNG streams are part of the checkpoint: the restored
     run must replay the exact same fault schedule suffix. *)
  test_snapshot_restore_bit_identical_generic
    { Config.default with Config.faults = Some fault_spec }

let test_restore_rejects_corruption () =
  let controller = populated_controller () in
  Controller.run controller ~epochs:10;
  let doc = Controller.snapshot controller in
  let reject name doc =
    match Controller.restore doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" name
  in
  reject "empty document" "";
  reject "wrong magic" ("bogus" ^ doc);
  (* A well-formed, correctly checksummed document of an earlier format
     version is refused on its magic, which the error names, not
     migrated. *)
  (match Codec.unseal ~magic:"dream-checkpoint v5" doc with
  | Error e -> Alcotest.failf "current snapshot does not unseal: %s" e
  | Ok body ->
    List.iter
      (fun version ->
        match Controller.restore (Codec.seal ~magic:("dream-checkpoint " ^ version) body) with
        | Error e ->
          Alcotest.(check string)
            (version ^ " refused on its magic")
            (Printf.sprintf {|bad magic: expected "dream-checkpoint v5", got "dream-checkpoint %s"|}
               version)
            e
        | Ok _ -> Alcotest.failf "%s document must be rejected" version)
      [ "v3"; "v4" ]);
  (* A v5 document of the earlier layout kept the fault model's downtime,
     stale decay, retry budget, partition groups and storm size in its
     spec and 17 constants in [build].  Resealed, it is refused at the
     first [build] line that differs, where the downtime now stands. *)
  let faulty =
    populated_controller ~config:{ Config.default with Config.faults = Some fault_spec } ()
  in
  Controller.run faulty ~epochs:10;
  (match Codec.unseal ~magic:"dream-checkpoint v5" (Controller.snapshot faulty) with
  | Error e -> Alcotest.failf "faulty snapshot does not unseal: %s" e
  | Ok body ->
    let folded =
      [ "mean_downtime"; "stale_decay"; "retry_budget_fraction"; "partition_groups"; "storm_size" ]
    in
    let key line = List.hd (String.split_on_char ' ' line) in
    let lines = String.split_on_char '\n' body in
    let build, rest =
      let rec split acc = function
        | "[controller]" :: _ as rest -> (List.rev acc, rest)
        | l :: rest -> split (l :: acc) rest
        | [] -> Alcotest.fail "no [controller] section"
      in
      split [] lines
    in
    let line k = List.find (fun l -> key l = k) build in
    let after = function
      | "crash_rate" -> [ "mean_downtime" ]
      | "perturb_stddev" -> [ "stale_decay"; "retry_budget_fraction" ]
      | "mean_partition" -> [ "partition_groups" ]
      | "storm_rate" -> [ "storm_size" ]
      | _ -> []
    in
    let kept = List.filter (fun l -> not (List.mem (key l) folded)) build in
    Alcotest.(check int) "the earlier [build] holds 17 constants" 17 (List.length kept - 1);
    let earlier = kept @ List.concat_map (fun l -> l :: List.map line (after (key l))) rest in
    match
      Controller.restore (Codec.seal ~magic:"dream-checkpoint v5" (String.concat "\n" earlier))
    with
    | Error e ->
      Alcotest.(check string) "earlier v5 layout refused at its first differing [build] line"
        {|line 12: expected "mean_downtime" field, got "hysteresis"|} e
    | Ok _ -> Alcotest.fail "a v5 document of the earlier layout must be rejected");
  (* Seeded corruption fuzz: any truncation or flipped byte breaks the MD5
     seal (or the magic), so the document is refused before it is parsed. *)
  let rng = Rng.create 11 in
  let len = String.length doc in
  for _ = 1 to 200 do
    reject "truncation" (String.sub doc 0 (Rng.int rng len));
    let flipped = Bytes.of_string doc in
    let i = Rng.int rng len in
    let c = Char.code (Bytes.get flipped i) in
    Bytes.set flipped i (Char.chr ((c + 1 + Rng.int rng 255) land 255));
    reject "flipped byte" (Bytes.to_string flipped)
  done

(* ---- malformed but sealed checkpoints ---- *)

let magic = "dream-checkpoint v5"

let body_of doc =
  match Codec.unseal ~magic doc with
  | Ok body -> body
  | Error e -> Alcotest.failf "snapshot does not unseal: %s" e

let reseal lines = Codec.seal ~magic (String.concat "\n" lines)

(* The body with the value of the [nth] (from 0) [key] line replaced. *)
let set_nth body key nth value =
  let seen = ref 0 in
  String.split_on_char '\n' body
  |> List.map (fun line ->
         if String.starts_with ~prefix:(key ^ " ") line then begin
           incr seen;
           if !seen = nth + 1 then key ^ " " ^ value else line
         end
         else line)

(* The value of the [nth] (from 0) [key] line of the body. *)
let nth_value body key nth =
  let values =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:(key ^ " ") line then
          Some (String.sub line (String.length key + 1) (String.length line - String.length key - 1))
        else None)
      (String.split_on_char '\n' body)
  in
  List.nth values nth

(* A sealed document whose body was edited after the fact must come back
   as [Error] (or, if the edit happens to be harmless, [Ok]) — never as an
   exception. *)
let restore_total name doc =
  match Controller.restore doc with
  | Ok _ -> `Ok
  | Error _ -> `Error
  | exception e -> Alcotest.failf "%s: restore raised %s" name (Printexc.to_string e)

let degraded_config =
  { Config.default with Config.faults = Some fault_spec; degraded = Some Config.default_degraded }

let test_restore_rejects_bad_values () =
  let controller = populated_controller () in
  let sink = Journal.memory () in
  Controller.set_journal controller (Some sink);
  Controller.run controller ~epochs:10;
  let body = body_of (Controller.checkpoint controller) in
  let env = Controller.environment controller in
  (* The first task's first counter, and what it can be turned into. *)
  let first = Prefix.of_string (nth_value body "prefix" 0) in
  let parent_of p = Option.get (Prefix.parent p) in
  let left_of p = Option.get (Prefix.left_child p) in
  let edit key nth value = (Printf.sprintf "%s #%d %s" key nth value, set_nth body key nth value) in
  List.iter
    (fun (name, lines) ->
      let doc = reseal lines in
      Alcotest.(check bool) (name ^ ": restore refuses it") true (restore_total name doc = `Error);
      match
        Controller.recover ~env ~snapshot:doc ~journal:(Journal.entries sink)
          ~at_epoch:(Controller.epoch controller)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: recover must refuse it" name
      | exception e -> Alcotest.failf "%s: recover raised %s" name (Printexc.to_string e))
    [
      (* a switch capacity the TCAM refuses, a task filter that is not a
         prefix, and a leaf length longer than an address *)
      edit "capacity" 0 "0";
      edit "filter" 0 "10.0.0.0/99x";
      edit "leaf_length" 0 "99";
      (* counters that no longer partition the task's filter: a duplicate,
         an overlap, a gap, and a counter outside the filter *)
      edit "prefix" 1 (Prefix.to_string first);
      edit "prefix" 1 (Prefix.to_string (parent_of first));
      edit "prefix" 0 (Prefix.to_string (left_of first));
      edit "prefix" 0 "99.0.0.0/20";
    ];
  (* A scripted injection the fault model cannot fire: a crash on switch
     99 of 4, a partition of group 9 of 4. *)
  let faulty =
    populated_controller ~config:{ Config.default with Config.faults = Some fault_spec } ()
  in
  Controller.run faulty ~epochs:10;
  let faulty_body = body_of (Controller.checkpoint faulty) in
  let inject block fields =
    String.split_on_char '\n' faulty_body
    |> List.concat_map (fun line ->
           if line = block ^ " 0" then (block ^ " 1") :: fields else [ line ])
  in
  List.iter
    (fun (name, lines) ->
      Alcotest.(check bool) (name ^ ": restore refuses it") true
        (restore_total name (reseal lines) = `Error))
    [
      ("crash on switch 99", inject "inj_crashes" [ "at 12"; "switch 99"; "downtime 2" ]);
      ("partition of group 9", inject "inj_partitions" [ "at 12"; "group 9"; "span 2" ]);
    ];
  (* A degraded-mode checkpoint of four switches cut down to its first
     breaker (three lines each): fetch indexes the breakers by switch. *)
  let degraded = populated_controller ~config:degraded_config () in
  Controller.run degraded ~epochs:10;
  let body = body_of (Controller.checkpoint degraded) in
  let lines = Array.of_list (String.split_on_char '\n' body) in
  let at = Option.get (Array.find_index (String.equal "breakers 4") lines) in
  let one_breaker =
    Array.concat
      [
        Array.sub lines 0 at;
        [| "breakers 1" |];
        Array.sub lines (at + 1) 3;
        Array.sub lines (at + 13) (Array.length lines - at - 13);
      ]
  in
  Alcotest.(check bool) "one breaker for four switches: restore refuses it" true
    (restore_total "one breaker" (reseal (Array.to_list one_breaker)) = `Error)

let test_restore_fuzz_resealed () =
  let controller = populated_controller ~config:degraded_config () in
  Controller.run controller ~epochs:12;
  let body = body_of (Controller.snapshot controller) in
  let lines = Array.of_list (String.split_on_char '\n' body) in
  let n = Array.length lines in
  let rng = Rng.create 5 in
  let values = [| "0"; "-1"; "999999"; "nan"; "x" |] in
  let outcomes = Hashtbl.create 2 in
  for k = 1 to 400 do
    let i = Rng.int rng n in
    let mutated =
      Array.to_list lines
      |> List.mapi (fun j line ->
             if j <> i then [ line ]
             else
               match (Rng.int rng 3, String.index_opt line ' ') with
               | 0, _ -> []
               | 1, _ -> [ line; line ]
               | _, Some sp -> [ String.sub line 0 sp ^ " " ^ Rng.pick rng values ]
               | _, None -> [ line ^ " " ^ Rng.pick rng values ])
      |> List.concat
    in
    let outcome = restore_total (Printf.sprintf "mutation %d (line %d)" k i) (reseal mutated) in
    Hashtbl.replace outcomes outcome ()
  done;
  Alcotest.(check bool) "some mutations are refused" true (Hashtbl.mem outcomes `Error)

(* snapshot (restore (snapshot c)) = snapshot c, at seeded epochs, for
   every configuration shape the checkpoint encodes. *)
let test_snapshot_roundtrip_configs () =
  let rng = Rng.create 17 in
  List.iter
    (fun (name, config) ->
      let controller = populated_controller ~config () in
      List.iter
        (fun epochs ->
          Controller.run controller ~epochs;
          let doc = Controller.snapshot controller in
          match Controller.restore doc with
          | Error e -> Alcotest.failf "%s: restore failed: %s" name e
          | Ok restored ->
            Alcotest.(check bool)
              (Printf.sprintf "%s at epoch %d" name (Controller.epoch controller))
              true
              (Controller.snapshot restored = doc))
        [ 0; 1 + Rng.int rng 8; 1 + Rng.int rng 20 ])
    [
      ("default", Config.default);
      ("faults", { Config.default with Config.faults = Some fault_spec });
      ("faults + degraded", degraded_config);
      ("hardware", Config.hardware ~installs_per_epoch:16);
      ("prototype", Config.prototype);
    ]

(* The checkpoint bytes of the configs that set the prototype flag, the
   install-budget lines and the degraded-mode lines, pinned after a few
   epochs: a change that claims byte identity leaves each md5 alone. *)
let test_snapshot_bytes_pinned () =
  List.iter
    (fun (name, config, md5) ->
      let controller = populated_controller ~config () in
      Controller.run controller ~epochs:6;
      Alcotest.(check string) name md5 (Digest.to_hex (Digest.string (Controller.snapshot controller))))
    [
      ("prototype", Config.prototype, "0c61ab476850a51acdedfe8fc5f5e284");
      ("hardware", Config.hardware ~installs_per_epoch:16, "b86f5f00c2e0a50dd857b0efde607a0c");
      ("faults + degraded", degraded_config, "d4110223462d94987c32ebf6d892a4c2");
    ]

(* The key-path walk of a [dream-sim checkpoint --at 10 --epochs 40
   --fault-rate 0.05] snapshot names each part's lines in order.  The
   document's own description is private to Checkpoint, so the walk covers
   the exported parts it is made of, each found whole in the snapshot. *)
let test_key_paths_match_checkpoint_lines () =
  let config = { Config.default with Config.faults = Some (Fault_model.uniform ~seed:97 0.05) } in
  let drive =
    Drive.create ~config ~strategy:Dream_sim.Experiment.dream_strategy
      { Scenario.default with Scenario.total_epochs = 40 }
  in
  for _ = 1 to 10 do
    Drive.step drive
  done;
  let snapshot = Controller.snapshot (Drive.controller drive) in
  let contains text =
    let n = String.length text in
    let rec at i =
      i + n <= String.length snapshot && (String.sub snapshot i n = text || at (i + 1))
    in
    at 0
  in
  let walk name codec v =
    let text = Codec.encode codec v in
    Alcotest.(check (list string)) name (Key_paths.keys_of_lines text)
      (Key_paths.key_paths ~json:false codec v);
    Alcotest.(check bool) (name ^ " is in the snapshot") true (contains text)
  in
  match Dream_core.Checkpoint.parse snapshot with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check bool) "tasks are running" true (d.runtimes <> []);
    Option.iter (walk "fault model" Fault_model.codec) d.faults;
    walk "allocator" Allocator.codec d.allocator;
    Array.iter (walk "breaker" Dream_switch.Breaker.codec) d.breakers;
    List.iter (walk "runtime" Dream_core.Runtime.codec) d.runtimes

(* The journal bytes of a seeded run at a 20% fault rate (it journals all
   six kinds of entry) and of one hand-built entry of each kind: a change
   that claims byte identity leaves each md5 alone. *)
let test_journal_bytes_pinned () =
  let sink = Journal.memory () in
  let drive =
    Drive.create ~journal:sink
      ~config:{ Config.default with Config.faults = Some (Fault_model.uniform ~seed:3 0.2) }
      ~strategy:(Allocator.Dream Dream_allocator.default_config) (small_scenario 3)
  in
  for _ = 1 to 60 do
    Drive.step drive
  done;
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "seeded faulty run" "caf0c4574aaaa67e5bd5c53e178ab843"
    (md5 (encode_all (Journal.entries sink)));
  List.iter2
    (fun e expected ->
      Alcotest.(check string) (Journal.entry_name e) expected (md5 (Journal.entry_to_string e)))
    (sample_entries ())
    [
      "c1c120482a6f75e9530b6f23e68da51c";
      "46d1b8625b84955d031c627be7d671ca";
      "89e0983e94eef0200e8008db6e337cf4";
      "005616efb7b8bd470f1d5e1f7b59ae4e";
      "5e3c1cb720b4cc48e0f81aa62c68348d";
      "eec7241a6bacc15b033cb905e2d1790b";
    ]

(* Only a fault model can make a fetch fall back on stale readings, so a
   fault-free run keeps none in its checkpoint. *)
(* Random non-negative tallies written into a controller's registry
   cells survive snapshot and restore, and the checkpoint lists the
   twenty keys in Metrics' declaration order. *)
let prop_tallies_roundtrip =
  QCheck.Test.make ~name:"tallies survive snapshot and restore, in declaration order"
    ~count:50
    (QCheck.make QCheck.Gen.(list_repeat 20 (oneof [ small_nat; int_bound max_int ])))
    (fun values ->
      let pending = ref values in
      let rob =
        Metrics.map
          (fun _ ->
            match !pending with
            | v :: rest ->
              pending := rest;
              v
            | [] -> Alcotest.fail "fewer values than tallies")
          Metrics.names
      in
      let bundle = Dream_obs.Telemetry.create () in
      let controller =
        mk_controller ~config:{ Config.default with Config.telemetry = Some bundle } ()
      in
      Metrics.Tallies.set
        (Metrics.Tallies.of_registry (Dream_obs.Telemetry.registry bundle))
        rob;
      let doc = Controller.snapshot controller in
      let keys =
        String.split_on_char '\n' (body_of doc)
        |> List.fold_left
             (fun (inside, acc) line ->
               match (line, String.index_opt line ' ') with
               | "[robustness]", _ -> (true, acc)
               | _, Some sp when inside && List.length acc < 20 ->
                 (true, String.sub line 0 sp :: acc)
               | _, _ -> (false, acc))
             (false, [])
        |> snd |> List.rev
      in
      keys = Metrics.to_list Metrics.names
      &&
      match Controller.restore doc with
      | Ok restored -> Controller.robustness restored = rob
      | Error e -> Alcotest.failf "restore failed: %s" e)

let test_fault_free_snapshot_has_no_stale_counters () =
  let controller = populated_controller () in
  Controller.run controller ~epochs:15;
  let stale =
    String.split_on_char '\n' (body_of (Controller.snapshot controller))
    |> List.filter (String.starts_with ~prefix:"stale_counters ")
  in
  Alcotest.(check int) "one stale_counters line per runtime"
    (Controller.active_tasks controller) (List.length stale);
  List.iter (Alcotest.(check string) "no stale readings" "stale_counters 0") stale

(* ---- fail-over recovery ---- *)

let test_recover_from_fresh_checkpoint_is_clean () =
  (* Crash right after a checkpoint: the journal suffix is empty and the
     network exactly matches the restored state, so the audit must find
     nothing to fix. *)
  let controller = populated_controller () in
  let sink = Journal.memory () in
  Controller.set_journal controller (Some sink);
  Controller.run controller ~epochs:20;
  let snapshot = Controller.checkpoint controller in
  let at_epoch = Controller.epoch controller in
  let active_before = Controller.active_task_ids controller in
  let records_before = Controller.records controller in
  let env = Controller.environment controller in
  match Controller.recover ~env ~snapshot ~journal:(Journal.entries sink) ~at_epoch with
  | Error msg -> Alcotest.failf "recover failed: %s" msg
  | Ok successor ->
    Alcotest.(check int) "resumes at the crash epoch" at_epoch (Controller.epoch successor);
    Alcotest.(check (list int)) "same active tasks" active_before
      (Controller.active_task_ids successor);
    Alcotest.(check bool) "records restored" true
      (Controller.records successor = records_before);
    let rob = Controller.robustness successor in
    Alcotest.(check int) "fail-over counted" 1 rob.Metrics.controller_crashes;
    Alcotest.(check int) "no strays" 0 rob.Metrics.reconcile_removed;
    Alcotest.(check int) "no missing rules" 0 rob.Metrics.reconcile_installed

let test_recover_replays_journal () =
  (* Crash with a non-empty journal suffix: admissions, endings and
     allocation changes after the checkpoint are replayed verbatim, and the
     audit reconciles the drift between the live network and the replayed
     state (measurement state since the checkpoint is legitimately lost). *)
  let controller = populated_controller () in
  let sink = Journal.memory () in
  Controller.set_journal controller (Some sink);
  Controller.run controller ~epochs:20;
  let snapshot = Controller.checkpoint controller in
  let rng = Rng.create 77 in
  ignore (submit_task controller rng ~filter_index:11 ~duration:30);
  ignore (submit_task controller rng ~filter_index:12 ~duration:30);
  Controller.run controller ~epochs:6;
  Alcotest.(check bool) "journal suffix is non-empty" true (Journal.length sink > 0);
  let at_epoch = Controller.epoch controller in
  let active_before = Controller.active_task_ids controller in
  let records_before = Controller.records controller in
  let env = Controller.environment controller in
  match Controller.recover ~env ~snapshot ~journal:(Journal.entries sink) ~at_epoch with
  | Error msg -> Alcotest.failf "recover failed: %s" msg
  | Ok successor ->
    Alcotest.(check int) "resumes at the crash epoch" at_epoch (Controller.epoch successor);
    Alcotest.(check (list int)) "post-checkpoint admissions replayed" active_before
      (Controller.active_task_ids successor);
    Alcotest.(check bool) "records replayed" true
      (Controller.records successor = records_before);
    Alcotest.(check int) "fail-over counted" 1
      (Controller.robustness successor).Metrics.controller_crashes;
    (* And the successor keeps running to completion. *)
    Controller.run successor ~epochs:30;
    Controller.finalize successor;
    let s = Controller.summary successor in
    Alcotest.(check bool) "tasks completed after fail-over" true (s.Metrics.completed > 0)

let test_recover_reconciles_tampered_switches () =
  let controller = populated_controller () in
  let sink = Journal.memory () in
  Controller.set_journal controller (Some sink);
  Controller.run controller ~epochs:20;
  let snapshot = Controller.checkpoint controller in
  let at_epoch = Controller.epoch controller in
  (* Simulate rule drift while the controller is dead: a stray rule from
     nowhere, and one legitimate rule lost. *)
  let switches = Controller.switches controller in
  let tcam = Switch.tcam switches.(0) in
  let stray = Prefix.nth_descendant Prefix.root ~length:30 12345 in
  (match Tcam.install tcam ~owner:9999 (Prefix.key stray) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stray install must fit");
  let lost_owner, lost_prefix =
    match
      List.find_opt (fun (owner, prefixes) -> owner <> 9999 && prefixes <> []) (Tcam.dump tcam)
    with
    | Some (owner, p :: _) -> (owner, p)
    | _ -> Alcotest.fail "expected at least one legitimate rule on switch 0"
  in
  Alcotest.(check bool) "legit rule removed" true (Tcam.remove tcam ~owner:lost_owner (Prefix.key lost_prefix));
  let env = Controller.environment controller in
  match Controller.recover ~env ~snapshot ~journal:(Journal.entries sink) ~at_epoch with
  | Error msg -> Alcotest.failf "recover failed: %s" msg
  | Ok successor ->
    let rob = Controller.robustness successor in
    Alcotest.(check int) "stray removed" 1 rob.Metrics.reconcile_removed;
    Alcotest.(check int) "missing rule reinstalled" 1 rob.Metrics.reconcile_installed;
    Alcotest.(check int) "stray owner gone" 0 (Tcam.used_by tcam ~owner:9999);
    Alcotest.(check int) "legit rule back" 1
      (List.length
         (List.filter (( = ) lost_prefix)
            (List.concat_map
               (fun (owner, ps) -> if owner = lost_owner then ps else [])
               (Tcam.dump tcam))))

(* Journals that parse but hold an entry replay cannot apply: recover
   returns [Error] and leaves the surviving network as it was. *)
let test_recover_rejects_bad_journal () =
  let controller = populated_controller () in
  let sink = Journal.memory () in
  Controller.set_journal controller (Some sink);
  Controller.run controller ~epochs:10;
  let snapshot = Controller.checkpoint controller in
  Controller.run controller ~epochs:3;
  let at_epoch = Controller.epoch controller in
  let env = Controller.environment controller in
  let network = Controller.snapshot controller in
  let suffix = encode_all (Journal.entries sink) in
  let task_id = List.hd (Controller.active_task_ids controller) in
  let admit source =
    match sample_entries () with
    | Journal.Admit a :: _ -> Journal.Admit { a with epoch = at_epoch; task_id = 100; source }
    | _ -> Alcotest.fail "the first sample entry is an admission"
  in
  let real_source =
    let rng = Rng.create 8 in
    let topology =
      Topology.create rng ~filter:(Prefix.nth_descendant Prefix.root ~length:12 17) ~num_switches:4
        ~switches_per_task:4
    in
    Codec.encode Source.codec
      (Source.of_generator
         (Generator.create rng ~topology ~profile:(Profile.default ~threshold:8.0)))
  in
  let alloc ~switch ~alloc =
    Journal.entry_to_string (Journal.Alloc { epoch = at_epoch; task_id; switch; alloc })
  in
  (* The admission with its first sub-filter moved onto switch 99. *)
  let on_switch_99 entry =
    String.concat "\n" (set_nth (Journal.entry_to_string entry) "sw" 0 "99")
  in
  List.iter
    (fun (name, bad) ->
      match Journal.entries_of_string (suffix ^ bad) with
      | Error e -> Alcotest.failf "%s: the journal must parse: %s" name e
      | Ok journal ->
        (match Controller.recover ~env ~snapshot ~journal ~at_epoch with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: recover must refuse it" name
        | exception e -> Alcotest.failf "%s: recover raised %s" name (Printexc.to_string e));
        Alcotest.(check bool) (name ^ ": network untouched") true
          (String.equal network (Controller.snapshot controller)))
    [
      ("alloc on switch 99", alloc ~switch:99 ~alloc:4);
      ("negative alloc", alloc ~switch:0 ~alloc:(-1));
      ("garbage source", Journal.entry_to_string (admit "garbage"));
      ("topology names switch 99", on_switch_99 (admit real_source));
    ];
  (* An admission whose first two sub-filters are swapped is refused as it
     is parsed: corruption wherever it sits, the final entry included.  A
     torn tail is only a final entry that runs out of lines. *)
  let swapped =
    let lines = String.split_on_char '\n' (Journal.entry_to_string (admit real_source)) in
    match List.filter (String.starts_with ~prefix:"sub ") lines with
    | a :: b :: _ ->
      String.concat "\n" (List.map (fun l -> if l = a then b else if l = b then a else l) lines)
    | _ -> Alcotest.fail "the admission lists its sub-filters"
  in
  let refused name text =
    (match Journal.entries_of_string text with
    | Ok _ -> Alcotest.failf "%s: a refused entry must not parse" name
    | Error e ->
      (* "line N: sub-filter 0 is …", with the line of the refused entry. *)
      let reason =
        match String.index_opt e ':' with
        | Some i -> String.sub e (i + 2) (String.length e - i - 2)
        | None -> e
      in
      Alcotest.(check bool) (name ^ ": refused at its line") true
        (String.starts_with ~prefix:"line " e
        && (not (String.starts_with ~prefix:"line 0:" e))
        && String.starts_with ~prefix:"sub-filter 0 is " reason));
    let recovered =
      match Journal.entries_of_string text with
      | Error e -> Error e
      | Ok journal -> Result.map ignore (Controller.recover ~env ~snapshot ~journal ~at_epoch)
    in
    Alcotest.(check bool) (name ^ ": recovery refuses it") true (Result.is_error recovered);
    Alcotest.(check bool) (name ^ ": network untouched") true
      (String.equal network (Controller.snapshot controller))
  in
  refused "swapped sub-filters, final" (suffix ^ swapped);
  refused "swapped sub-filters, then another entry" (suffix ^ swapped ^ alloc ~switch:0 ~alloc:4);
  (* Cut before its second sub-filter line, the same entry is torn. *)
  let torn =
    let rec keep subs = function
      | l :: rest when String.starts_with ~prefix:"sub " l ->
        if subs = 1 then [] else l :: keep (subs + 1) rest
      | l :: rest -> l :: keep subs rest
      | [] -> []
    in
    String.concat "" (List.map (fun l -> l ^ "\n") (keep 0 (String.split_on_char '\n' swapped)))
  in
  match Journal.entries_of_string (suffix ^ torn) with
  | Ok journal ->
    Alcotest.(check int) "a torn final admission is dropped"
      (List.length (Journal.entries sink)) (List.length journal)
  | Error e -> Alcotest.failf "a torn final admission must be tolerated: %s" e

(* Fail-over reproduces the live controller: recovering from the last
   checkpoint plus the journal at the crash epoch yields the same active
   tasks, records and allocations. *)
let test_failover_matches_live () =
  List.iter
    (fun (strategy, seed, checkpoint_at, crash_at) ->
      let name =
        Printf.sprintf "%s seed %d, checkpoint %d, crash %d" (Allocator.strategy_name strategy) seed
          checkpoint_at crash_at
      in
      let sink = Journal.memory () in
      let drive =
        Drive.create ~journal:sink ~config:(faulty_config seed) ~strategy (small_scenario seed)
      in
      let step_to epoch =
        while Controller.epoch (Drive.controller drive) < epoch do
          Drive.step drive
        done
      in
      step_to checkpoint_at;
      let snapshot = Controller.checkpoint (Drive.controller drive) in
      step_to crash_at;
      let live = Drive.controller drive in
      let ids = Controller.active_task_ids live in
      (* Every task's allocation on each of the network's switches. *)
      let allocations c =
        List.map
          (fun task_id ->
            List.init (Controller.num_switches c) (fun sw ->
                (sw, Allocator.allocation_on (Controller.allocator c) ~task_id sw)))
          ids
      in
      let expected_allocations = allocations live in
      let expected_records = Controller.records live in
      match
        Controller.recover ~env:(Controller.environment live) ~snapshot
          ~journal:(Journal.entries sink) ~at_epoch:crash_at
      with
      | Error e -> Alcotest.failf "%s: recover failed: %s" name e
      | Ok successor ->
        Alcotest.(check (list int))
          (name ^ ": active tasks") ids
          (Controller.active_task_ids successor);
        Alcotest.(check bool)
          (name ^ ": records") true
          (Controller.records successor = expected_records);
        Alcotest.(check (list (list (pair int int))))
          (name ^ ": allocations") expected_allocations (allocations successor))
    (List.concat_map
       (fun strategy ->
         List.concat_map
           (fun seed -> [ (strategy, seed, 10, 17); (strategy, seed, 24, 38) ])
           [ 1; 2 ])
       [ Allocator.Dream Dream_allocator.default_config; Allocator.Equal; Allocator.Fixed 8 ])

let test_crash_recovery_sweep_clean () =
  (* End-to-end: under injected controller crashes the driver fails over
     from checkpoint + journal; the invariant checker must stay silent. *)
  let scenario =
    {
      Scenario.default with
      Scenario.num_tasks = 12;
      num_switches = 4;
      switches_per_task = 4;
      capacity = 256;
      arrival_window = 40;
      mean_duration = 30;
      total_epochs = 90;
    }
  in
  let p =
    match
      Crash_recovery.sweep ~checkpoint_interval:15 ~seeds:[ 211 ] ~rates:[ 0.08 ] scenario
        (Allocator.Dream Dream_allocator.default_config)
    with
    | [ p ] -> p
    | _ -> Alcotest.fail "one point per rate"
  in
  let crashes = int_of_float p.Crash_recovery.crashes in
  Alcotest.(check bool) (Printf.sprintf "crashes injected (%d)" crashes) true (crashes > 0);
  Alcotest.(check int) "fail-overs survived" crashes p.Crash_recovery.controller_crashes;
  Alcotest.(check int) "zero invariant violations" 0 p.Crash_recovery.invariant_violations;
  Alcotest.(check bool) "tasks completed" true (p.Crash_recovery.completed > 0)

(* ---- invariant checker ---- *)

let test_invariant_clean_run () =
  let config = { Config.default with Config.check_invariants = true } in
  let controller = populated_controller ~config () in
  Controller.run controller ~epochs:40;
  Controller.finalize controller;
  Alcotest.(check int) "no violations on a healthy run" 0
    (Controller.robustness controller).Metrics.invariant_violations

let test_invariant_detects_orphan_rule () =
  let sw = Switch.create ~id:0 ~capacity:8 () in
  let p = Prefix.nth_descendant Prefix.root ~length:8 1 in
  (match Tcam.install (Switch.tcam sw) ~owner:42 (Prefix.key p) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install must fit");
  let allocator = Allocator.create Allocator.Equal ~capacities:[ (0, 8) ] in
  let violations =
    Invariant.check_all ~allocator ~switches:[| sw |] ~up:(fun _ -> true) ~tasks:[]
  in
  Alcotest.(check bool) "orphan rule flagged" true
    (List.exists (fun v -> v.Invariant.code = "orphan-rules") violations)

(* One stray under a live task's owner and one of its rules lost, on a
   reachable switch: one rules-match violation, counting both, and the
   check leaves every table as it was.  A task with no rules left on a
   switch gets no column made for it by the check either. *)
let test_invariant_detects_rules_mismatch () =
  let controller = populated_controller () in
  Controller.run controller ~epochs:20;
  Alcotest.(check int) "healthy before tampering" 0
    (List.length (Controller.check_invariants_now controller));
  let switches = Controller.switches controller in
  let tcam = Switch.tcam switches.(0) in
  let owner, lost =
    match Tcam.dump tcam with
    | (owner, p :: _) :: _ -> (owner, p)
    | _ -> Alcotest.fail "expected a live task's rule on switch 0"
  in
  Alcotest.(check bool) "rule lost" true (Tcam.remove tcam ~owner (Prefix.key lost));
  (* A child of a configured counter is never configured itself. *)
  let stray = Prefix.nth_descendant lost ~length:(Prefix.length lost + 1) 0 in
  (match Tcam.install tcam ~owner (Prefix.key stray) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stray install must fit");
  let owners tcam = Tcam.fold_owners (fun _ _ n -> n + 1) tcam 0 in
  let tables () =
    Array.map (fun sw -> (Tcam.dump (Switch.tcam sw), owners (Switch.tcam sw))) switches
  in
  let before = tables () in
  let rules = Tcam.used_by tcam ~owner in
  let expected =
    Printf.sprintf "task %d on switch 0: %d rules installed, %d configured (1 stray, 1 missing)"
      owner rules rules
  in
  (match Controller.check_invariants_now controller with
  | [ v ] ->
    Alcotest.(check string) "code" "rules-match" v.Invariant.code;
    Alcotest.(check string) "detail" expected v.Invariant.detail
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  Alcotest.(check bool) "tables unchanged by the check" true (tables () = before);
  (* Every rule of the task gone from switch 1, its column with them. *)
  ignore (Tcam.remove_owner (Switch.tcam switches.(1)) ~owner);
  let before = tables () in
  Alcotest.(check int) "two tables mismatch" 2
    (List.length (Controller.check_invariants_now controller));
  Alcotest.(check bool) "no column made by the check" true (tables () = before)

(* The trace is the controller's only event channel, so the violation's
   text travels on the [invariant_violation] event itself. *)
let test_invariant_violation_traced () =
  let bundle = Dream_obs.Telemetry.create () in
  let config = { Config.default with Config.check_invariants = true; telemetry = Some bundle } in
  let controller = populated_controller ~config () in
  let sw = (Controller.switches controller).(0) in
  let orphan = Prefix.nth_descendant Prefix.root ~length:8 1 in
  (match Tcam.install (Switch.tcam sw) ~owner:999 (Prefix.key orphan) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install must fit");
  Controller.tick controller;
  let expected = Controller.check_invariants_now controller in
  let events =
    List.filter_map
      (function
        | Dream_obs.Trace.Event { name = "invariant_violation"; fields; _ } -> Some fields
        | Dream_obs.Trace.Event _ | Dream_obs.Trace.Span _ -> None)
      (Dream_obs.Trace.items (Dream_obs.Telemetry.trace bundle))
  in
  match (events, expected) with
  | [ fields ], first :: _ ->
    Alcotest.(check bool) "count field" true
      (List.assoc_opt "count" fields = Some (Dream_obs.Trace.Int (List.length expected)));
    Alcotest.(check bool) "first violation's text" true
      (List.assoc_opt "first" fields = Some (Dream_obs.Trace.Str (Invariant.to_string first)))
  | _ ->
    Alcotest.failf "expected one invariant_violation event and a violation, got %d and %d"
      (List.length events) (List.length expected)

(* ---- descriptions ---- *)

(* The state of a seeded run under each allocation strategy, as its
   checkpoint holds it: faults, degraded mode, and HH, HHH and CD tasks. *)
let seeded_checkpoints =
  let cache = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt cache seed with
    | Some ds -> ds
    | None ->
      let config =
        { degraded_config with Config.faults = Some (Fault_model.uniform ~seed 0.05) }
      in
      let checkpoint strategy =
        let controller = mk_controller ~config ~strategy () in
        let rng = Rng.create seed in
        List.iteri
          (fun i kind ->
            let filter = Prefix.nth_descendant Prefix.root ~length:12 (i * 53) in
            let topology = Topology.create rng ~filter ~num_switches:4 ~switches_per_task:4 in
            let spec = Task_spec.make ~kind ~filter ~leaf_length:24 ~threshold:8.0 () in
            let generator =
              Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
            in
            ignore
              (Controller.submit controller ~spec ~topology ~source:(Source.of_generator generator)
                 ~duration:30))
          (Task_spec.all_kinds @ Task_spec.all_kinds);
        Controller.run controller ~epochs:8;
        match Dream_core.Checkpoint.parse (Controller.snapshot controller) with
        | Ok d -> d
        | Error e -> Alcotest.failf "seed %d: the checkpoint does not parse: %s" seed e
      in
      let ds =
        List.map checkpoint
          [ Allocator.Dream Dream_allocator.default_config; Allocator.Equal; Allocator.Fixed 4 ]
      in
      Hashtbl.replace cache seed ds;
      ds

(* Decoding the text of a value and encoding the result gives that text
   back, for every value [values seed] takes from a seeded run. *)
let prop_description name codec values =
  QCheck.Test.make ~name:("description round trip: " ^ name) ~count:4 QCheck.(int_bound 3)
    (fun seed ->
      let values = values seed in
      values <> []
      && List.for_all
           (fun x ->
             let text = Codec.encode codec x in
             String.equal text (Codec.encode codec (Codec.decode codec text)))
           values)

let runtimes seed =
  List.concat_map (fun d -> d.Dream_core.Checkpoint.runtimes) (seeded_checkpoints seed)

let tasks seed =
  List.map (fun (r : Dream_core.Runtime.t) -> r.Dream_core.Runtime.task) (runtimes seed)

let fresh_storage = Dream_tasks.Storage.create

(* Descriptions that take their context from the value: each value is
   checked under the description its own context makes. *)
let prop_in_context name values =
  QCheck.Test.make ~name:("description round trip: " ^ name) ~count:4 QCheck.(int_bound 3)
    (fun seed ->
      let values = values seed in
      values <> []
      && List.for_all
           (fun (codec, text) -> String.equal text (Codec.encode codec (Codec.decode codec text)))
           values)

(* The whole checkpoint, sealed, and the journal of a seeded run. *)
let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"description round trip: checkpoint" ~count:4 QCheck.(int_bound 3)
    (fun seed ->
      List.for_all
        (fun d ->
          let doc = Dream_core.Checkpoint.emit d in
          match Dream_core.Checkpoint.parse doc with
          | Ok d' -> String.equal doc (Dream_core.Checkpoint.emit d')
          | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e)
        (seeded_checkpoints seed))

let journal_run seed =
  let sink = Journal.memory () in
  let drive =
    Drive.create ~journal:sink
      ~config:{ Config.default with Config.faults = Some (Fault_model.uniform ~seed 0.2) }
      ~strategy:(Allocator.Dream Dream_allocator.default_config) (small_scenario seed)
  in
  for _ = 1 to 30 do
    Drive.step drive
  done;
  Journal.entries sink

let prop_journal_entries_roundtrip =
  QCheck.Test.make ~name:"description round trip: journal entries" ~count:4 QCheck.(int_bound 3)
    (fun seed ->
      List.for_all
        (fun e ->
          let text = Journal.entry_to_string e in
          match Journal.entries_of_string text with
          | Ok [ e' ] -> String.equal text (Journal.entry_to_string e')
          | Ok _ | Error _ -> false)
        (journal_run seed))

let description_props =
  let module Task = Dream_tasks.Task in
  let module Ground_truth = Dream_tasks.Ground_truth in
  let module Monitor = Dream_tasks.Monitor in
  let module Breaker = Dream_switch.Breaker in
  let module Membership = Dream_alloc.Membership_allocator in
  let module Ewma = Reference_ewma in
  let generators seed =
    let rng = Rng.create seed in
    List.map
      (fun (r : Dream_core.Runtime.t) ->
        let g =
          Generator.create rng ~topology:(Task.topology r.Dream_core.Runtime.task)
            ~profile:(Profile.default ~threshold:8.0)
        in
        for _ = 0 to seed do
          ignore (Generator.next g)
        done;
        g)
      (runtimes seed)
  in
  [
    prop_description "fault model" Fault_model.codec (fun seed ->
        List.filter_map (fun d -> d.Dream_core.Checkpoint.faults) (seeded_checkpoints seed));
    prop_description "breaker" Breaker.codec (fun seed ->
        List.concat_map
          (fun d -> Array.to_list d.Dream_core.Checkpoint.breakers)
          (seeded_checkpoints seed));
    prop_description "allocator" Allocator.codec (fun seed ->
        List.map (fun d -> d.Dream_core.Checkpoint.allocator) (seeded_checkpoints seed));
    prop_description "dream allocator" Dream_allocator.codec (fun seed ->
        List.filter_map
          (fun d -> Allocator.dream d.Dream_core.Checkpoint.allocator)
          (seeded_checkpoints seed));
    prop_in_context "membership allocator" (fun seed ->
        List.concat_map
          (fun rule ->
            let a = Membership.create rule ~capacities:(List.init 4 (fun sw -> (sw, 64))) in
            List.iter
              (fun r -> ignore (Membership.try_admit a (Dream_core.Runtime.view r)))
              (runtimes seed);
            let codec = Membership.codec rule in
            [ (codec, Codec.encode codec a) ])
          [ Membership.Equal; Membership.Fixed 4 ]);
    prop_description "runtime" Dream_core.Runtime.codec runtimes;
    prop_in_context "task" (fun seed ->
        List.map
          (fun t ->
            let codec = Task.codec ~storage:(fresh_storage ()) in
            (codec, Codec.encode codec t))
          (tasks seed));
    prop_in_context "monitor" (fun seed ->
        List.map
          (fun t ->
            let codec =
              Monitor.codec ~spec:(Task.spec t) ~topology:(Task.topology t)
                ~storage:(fresh_storage ())
            in
            (codec, Codec.encode codec (Task.monitor t)))
          (tasks seed));
    prop_in_context "ground truth" (fun seed ->
        List.map
          (fun (r : Dream_core.Runtime.t) ->
            let codec =
              Ground_truth.codec ~spec:(Task.spec r.Dream_core.Runtime.task)
                ~storage:(fresh_storage ())
            in
            (codec, Codec.encode codec r.Dream_core.Runtime.ground_truth))
          (runtimes seed));
    prop_description "task spec" Task_spec.codec (fun seed -> List.map Task.spec (tasks seed));
    prop_description "task kind" Task_spec.kind_codec (fun seed ->
        List.map (fun t -> (Task.spec t).Task_spec.kind) (tasks seed));
    prop_description "topology" Topology.codec (fun seed -> List.map Task.topology (tasks seed));
    prop_description "prefix" (Dream_prefix.Prefix.codec "p") (fun seed ->
        List.map (fun t -> (Task.spec t).Task_spec.filter) (tasks seed));
    prop_description "source" Source.codec (fun seed ->
        List.map (fun (r : Dream_core.Runtime.t) -> r.Dream_core.Runtime.source) (runtimes seed)
        @ List.map
            (fun g -> Source.replay (Array.init 2 (fun _ -> Generator.next g)))
            (generators seed));
    prop_description "generator" Generator.codec generators;
    prop_description "profile" Profile.codec (fun seed ->
        [ Profile.default ~threshold:(float_of_int (seed + 1)) ]);
    prop_in_context "ewma" (fun seed ->
        List.map
          (fun history ->
            let e = Ewma.create ~history in
            for i = 0 to seed do
              ignore (Ewma.update e (float_of_int i))
            done;
            let codec = Ewma.codec ~history in
            (codec, Codec.encode codec e))
          [ 0.0; 0.4; Task.accuracy_history ]);
    prop_description "rng" (Rng.codec "rng") (fun seed ->
        let rng = Rng.create seed in
        [ rng; Rng.split rng ]);
    prop_checkpoint_roundtrip;
    prop_journal_entries_roundtrip;
  ]

(* A real checkpoint body, resealed after a cut at each line boundary, is
   refused and never raises. *)
let test_checkpoint_cut_at_every_line () =
  let controller = mk_controller ~config:degraded_config () in
  let rng = Rng.create 21 in
  for i = 0 to 2 do
    ignore (submit_task controller rng ~filter_index:i ~duration:40)
  done;
  Controller.run controller ~epochs:4;
  let body = body_of (Controller.snapshot controller) in
  let cuts = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' && i < String.length body - 1 then begin
        incr cuts;
        let name = Printf.sprintf "cut after byte %d of %d" (i + 1) (String.length body) in
        Alcotest.(check bool) name true
          (restore_total name (Codec.seal ~magic (String.sub body 0 (i + 1))) = `Error)
      end)
    body;
  Alcotest.(check bool) "cuts made" true (!cuts > 500)

(* A real journal cut at each line boundary is a torn tail: it parses to
   the entries wholly before the cut.  A line taken out of any entry but
   the last is refused, and neither ever raises. *)
let test_journal_cut_at_every_line () =
  let entries = journal_run 3 in
  let texts = List.map Journal.entry_to_string entries in
  let lines_of t = List.filter (( <> ) "") (String.split_on_char '\n' t) in
  (* Per line of the journal, the number of entries wholly at or before it. *)
  let ends =
    List.concat
      (List.mapi
         (fun k t ->
           let n = List.length (lines_of t) in
           List.init n (fun i -> if i = n - 1 then k + 1 else k))
         texts)
  in
  let lines = List.concat_map lines_of texts in
  let n = List.length lines in
  let text_of ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let parse name text =
    match Journal.entries_of_string text with
    | r -> r
    | exception e -> Alcotest.failf "%s: parse raised %s" name (Printexc.to_string e)
  in
  List.iteri
    (fun i complete ->
      let name = Printf.sprintf "cut after line %d of %d" (i + 1) n in
      match parse name (text_of (List.filteri (fun j _ -> j <= i) lines)) with
      | Ok parsed -> Alcotest.(check int) name complete (List.length parsed)
      | Error e -> Alcotest.failf "%s: %s" name e)
    ends;
  let last_start = n - List.length (lines_of (List.nth texts (List.length texts - 1))) in
  List.iteri
    (fun i _ ->
      if i < last_start then begin
        let name = Printf.sprintf "line %d of %d taken out" (i + 1) n in
        match parse name (text_of (List.filteri (fun j _ -> j <> i) lines)) with
        | Ok _ -> Alcotest.failf "%s: parsed" name
        | Error _ -> ()
      end)
    lines

let () =
  Alcotest.run "dream.recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "encode/decode round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_journal_torn_tail;
          Alcotest.test_case "torn tail tolerated at every offset" `Quick
            test_journal_torn_tail_every_offset;
          Alcotest.test_case "corruption rejected" `Quick test_journal_corruption_rejected;
          Alcotest.test_case "file sink" `Quick test_journal_file_sink;
          QCheck_alcotest.to_alcotest prop_journal_roundtrip;
          Alcotest.test_case "truncations and byte flips never raise" `Quick test_journal_fuzz;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore is bit-identical" `Quick test_snapshot_restore_bit_identical;
          Alcotest.test_case "last_report: none after restore, then the oracle's" `Quick
            test_last_report_after_restore;
          Alcotest.test_case "restore is bit-identical under faults" `Quick
            test_snapshot_restore_with_faults;
          Alcotest.test_case "corruption rejected" `Quick test_restore_rejects_corruption;
          Alcotest.test_case "sealed bad values rejected" `Quick test_restore_rejects_bad_values;
          Alcotest.test_case "resealed mutations never raise" `Quick test_restore_fuzz_resealed;
          Alcotest.test_case "round trip across configs" `Quick test_snapshot_roundtrip_configs;
          Alcotest.test_case "snapshot bytes pinned across configs" `Quick
            test_snapshot_bytes_pinned;
          Alcotest.test_case "journal bytes pinned" `Quick test_journal_bytes_pinned;
          Alcotest.test_case "key paths match the checkpoint lines" `Quick
            test_key_paths_match_checkpoint_lines;
          Alcotest.test_case "a checkpoint cut at any line is refused" `Quick
            test_checkpoint_cut_at_every_line;
          Alcotest.test_case "a journal cut at any line is a torn tail" `Quick
            test_journal_cut_at_every_line;
          Alcotest.test_case "fault-free runs keep no stale counters" `Quick
            test_fault_free_snapshot_has_no_stale_counters;
          QCheck_alcotest.to_alcotest prop_tallies_roundtrip;
        ] );
      ( "failover",
        [
          Alcotest.test_case "fresh checkpoint fail-over is clean" `Quick
            test_recover_from_fresh_checkpoint_is_clean;
          Alcotest.test_case "journal replay" `Quick test_recover_replays_journal;
          Alcotest.test_case "journal bad values rejected" `Quick test_recover_rejects_bad_journal;
          Alcotest.test_case "recovery matches the live controller" `Quick
            test_failover_matches_live;
          Alcotest.test_case "switch reconciliation" `Quick
            test_recover_reconciles_tampered_switches;
          Alcotest.test_case "crash-recovery sweep stays invariant-clean" `Quick
            test_crash_recovery_sweep_clean;
        ] );
      ("codec", List.map QCheck_alcotest.to_alcotest description_props);
      ( "invariant",
        [
          Alcotest.test_case "clean run has no violations" `Quick test_invariant_clean_run;
          Alcotest.test_case "orphan rule detected" `Quick test_invariant_detects_orphan_rule;
          Alcotest.test_case "rules mismatch detected" `Quick test_invariant_detects_rules_mismatch;
          Alcotest.test_case "violation text traced" `Quick test_invariant_violation_traced;
        ] );
    ]
