(* Bechamel micro-benchmarks of the hot controller paths.  The paper's
   figures are regenerated by dream-figures (bin/dream_figures.ml).

   Usage:
     bench/main.exe                     run the micro-benchmarks
     bench/main.exe --snapshot-dir DIR  also write BENCH_micro.json into DIR *)

(* ---- Bechamel micro-benchmarks (Fig 17b's allocation-delay source) ---- *)

let micro_tests () =
  let open Bechamel in
  let module Rng = Dream_util.Rng in
  let module Prefix = Dream_prefix.Prefix in
  let module Switch_mask = Dream_traffic.Switch_mask in
  let module Topology = Dream_traffic.Topology in
  let module Generator = Dream_traffic.Generator in
  let module Profile = Dream_traffic.Profile in
  let module Aggregate = Dream_traffic.Aggregate in
  let module Epoch_data = Dream_traffic.Epoch_data in
  let module Flow = Dream_traffic.Flow in
  let module Task_spec = Dream_tasks.Task_spec in
  let module Task = Dream_tasks.Task in
  let module Monitor = Dream_tasks.Monitor in
  let module Ground_truth = Dream_tasks.Ground_truth in
  let module Dream_allocator = Dream_alloc.Dream_allocator in
  let module Task_view = Dream_alloc.Task_view in
  (* Shared fixture: a drilled-down task of each kind over 8 switches,
     with its ground truth. *)
  let rng = Rng.create 99 in
  let filter = Prefix.of_string "10.16.0.0/12" in
  let topology = Topology.create rng ~filter ~num_switches:8 ~switches_per_task:8 in
  let spec kind = Task_spec.make ~kind ~filter ~leaf_length:24 ~threshold:8.0 () in
  let generator =
    Generator.create (Rng.split rng) ~topology ~profile:(Profile.default ~threshold:8.0)
  in
  let kinds =
    [ ("HH", Task_spec.Heavy_hitter); ("HHH", Task_spec.Hierarchical_heavy_hitter);
      ("CD", Task_spec.Change_detection) ]
  in
  let fixtures =
    List.map
      (fun (name, kind) ->
        let storage = Dream_tasks.Storage.create () in
        ( name,
          Task.create ~id:0 ~spec:(spec kind) ~topology ~storage (),
          Ground_truth.create ~storage (spec kind) ))
      kinds
  in
  let task = match fixtures with (_, task, _) :: _ -> task | [] -> assert false in
  let allocations = Array.make (Topology.switches_per_task topology) 64 in
  let workspace = Dream_tasks.Divide_merge.create () in
  let data = ref (Generator.next generator) in
  let feed task = Task.read_traffic task !data in
  for epoch = 1 to 30 do
    data := Generator.next generator;
    List.iter
      (fun (_, task, truth) ->
        feed task;
        ignore (Task.estimate task ~epoch);
        ignore (Ground_truth.evaluate truth !data (Task.items task));
        Task.configure task ~workspace ~allocations)
      fixtures
  done;
  (* Allocator fixture: one switch, 64 tasks with random accuracies. *)
  let cfg = Dream_allocator.default_config in
  let allocator = Dream_allocator.create cfg ~capacities:[ (0, 4096) ] in
  let acc_rng = Rng.create 5 in
  let one_switch =
    Topology.create (Rng.create 0) ~filter ~num_switches:1 ~switches_per_task:1
  in
  let views = Task_view.table ~num_switches:1 in
  Task_view.reserve views 64;
  views.Task_view.rows <- 64;
  for i = 0 to 63 do
    views.Task_view.ids.(i) <- i;
    views.Task_view.bounds.(i) <- 0.8;
    views.Task_view.overall.(i) <- Rng.float acc_rng 1.0;
    views.Task_view.used.(i) <- 64;
    ignore
      (Dream_allocator.try_admit allocator
         { Task_view.id = i; topology = one_switch; switches = Switch_mask.full one_switch })
  done;
  let agg = Epoch_data.switch_view !data 0 in
  (* Telemetry fixture: the instruments the controller hits every epoch. *)
  let module Registry = Dream_obs.Registry in
  let module Trace = Dream_obs.Trace in
  let reg = Registry.create () in
  let ctr = Registry.counter reg "bench_counter" in
  let histo = Registry.histogram reg ~labels:[ ("phase", "bench") ] "bench_ms" in
  let trace = Trace.create () in
  [
    Test.make ~name:"allocator.reallocate (64 tasks, 1 switch)"
      (Staged.stage (fun () -> Dream_allocator.reallocate allocator views));
    Test.make ~name:"registry.counter incr (hot path)"
      (Staged.stage (fun () -> Registry.Counter.incr ctr));
    Test.make ~name:"registry.counter find-or-create + incr"
      (Staged.stage (fun () -> Registry.Counter.incr (Registry.counter reg "bench_counter")));
    Test.make ~name:"registry.histogram observe"
      (Staged.stage (fun () -> Registry.Histogram.observe histo 3.7));
    Test.make ~name:"trace.span append"
      (Staged.stage (fun () -> Trace.span trace ~epoch:0 ~phase:"bench" ~ms:1.0));
    Test.make ~name:"task.configure (divide-and-merge)"
      (Staged.stage (fun () -> Task.configure task ~workspace ~allocations));
  ]
  @ List.concat_map
      (fun (name, task, truth) ->
        [
          Test.make
            ~name:(Printf.sprintf "task.report+estimate (%s)" name)
            (Staged.stage (fun () -> ignore (Task.estimate task ~epoch:0)));
          Test.make
            ~name:(Printf.sprintf "ground_truth.evaluate (%s)" name)
            (Staged.stage (fun () ->
                 ignore (Ground_truth.evaluate truth !data (Task.items task))));
        ])
      fixtures
  @ [
    Test.make ~name:"aggregate.volume (prefix counter read)"
      (Staged.stage (fun () -> ignore (Aggregate.volume agg filter)));
    Test.make ~name:"generator.next (one traffic epoch)"
      (Staged.stage (fun () -> ignore (Generator.next generator)));
  ]
  @
  (* Counter-store micro-benchmarks: one flow list and TCAM read set, so
     the output shows the cost of the representation itself,
     isolated from the control loop. *)
  let flows = Aggregate.fold agg ~init:[] ~f:(fun acc f -> f :: acc) in
  (* The builder sorts its columns in place, so each run refills them
     from the descending originals and always takes the sorting path. *)
  let n_flows = List.length flows in
  let src_addrs = Array.of_list (List.map (fun (f : Flow.t) -> f.Flow.addr) flows) in
  let src_volumes = Array.of_list (List.map (fun (f : Flow.t) -> f.Flow.volume) flows) in
  let addrs = Array.copy src_addrs and volumes = Array.copy src_volumes in
  let m = Task.monitor task in
  let first = Monitor.rules_start m 0 in
  let n = Monitor.rules_stop m 0 first - first in
  let keys = Array.init n (fun i -> Monitor.key m (first + i)) in
  let vols = Array.make n 0.0 in
  [
    Test.make ~name:"store.build (of_flows)"
      (Staged.stage (fun () -> ignore (Aggregate.of_flows flows)));
    Test.make ~name:"store.read_keys (TCAM column)"
      (Staged.stage (fun () -> Aggregate.read_keys agg ~keys ~n vols));
    Test.make ~name:"store.build (of_columns)"
      (Staged.stage (fun () ->
           Array.blit src_addrs 0 addrs 0 n_flows;
           Array.blit src_volumes 0 volumes 0 n_flows;
           ignore (Aggregate.of_columns addrs volumes n_flows)));
  ]

(* Every row is measured twice, on the monotonic clock (ns/run) and on
   the minor heap (words/run), each estimated by OLS against the run
   count.  The two are separate runs: sampling the GC counters inside the
   timed samples would add their cost to the ns rows. *)
let run_micro ?snapshot_dir () =
  let open Bechamel in
  print_endline "Micro-benchmarks (Bechamel, monotonic clock and minor words)";
  print_endline "============================================================";
  let clock = Toolkit.Instance.monotonic_clock and words = Toolkit.Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimate instance results name =
    match Hashtbl.find_opt (Analyze.all ols instance results) name with
    | Some r -> ( match Analyze.OLS.estimates r with Some [ est ] -> est | Some _ | None -> nan)
    | None -> nan
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let timed = Benchmark.all cfg [ clock ] test in
      let counted = Benchmark.all cfg [ words ] test in
      List.iter
        (fun name ->
          let ns = estimate clock timed name and w = estimate words counted name in
          estimates := (name, ns, w) :: !estimates;
          Printf.printf "  %-45s %12.0f ns/run %10.1f words/run\n%!" name ns w)
        (Test.names test))
    (micro_tests ());
  match snapshot_dir with
  | None -> ()
  | Some dir ->
    (* Micro rows are wall-clock and words under Bechamel's sampling:
       Info direction, tracked but never gating. *)
    let module Snapshot = Dream_obs.Bench_snapshot in
    let metrics =
      List.concat_map
        (fun (name, ns, w) ->
          List.filter_map
            (fun (metric, unit_, v) ->
              if Float.is_finite v then Some (Snapshot.metric ~unit_ metric v) else None)
            [ (name, "ns", ns); (name ^ " words", "words", w) ])
        (List.rev !estimates)
    in
    let snap = Snapshot.make ~figure:"micro" ~quick:true ~metrics () in
    (match Snapshot.write snap ~dir with
    | Ok path -> Printf.printf "snapshot: %s\n%!" path
    | Error msg ->
      prerr_endline msg;
      exit 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> run_micro ()
  | [ "--snapshot-dir"; dir ] -> run_micro ~snapshot_dir:dir ()
  | _ ->
    prerr_endline "usage: bench/main.exe [--snapshot-dir DIR]";
    exit 124
