(* Tests for dream.alloc: step policies, the DREAM per-switch allocator
   (admission, redistribution, phantom headroom, invariants), and the
   Equal / Fixed baselines. *)

module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Switch_mask = Dream_traffic.Switch_mask
module Step_policy = Dream_alloc.Step_policy
module Task_view = Dream_alloc.Task_view
module Dream_allocator = Dream_alloc.Dream_allocator
module Membership_allocator = Dream_alloc.Membership_allocator
module Allocator = Dream_alloc.Allocator
module Reference = Reference_dream_allocator
module Rng = Dream_util.Rng
module Codec = Dream_util.Codec

let params = Step_policy.default_params

(* ---- Step policies ---- *)

let test_step_mm () =
  Alcotest.(check int) "grow doubles" 8 (Step_policy.grow Step_policy.MM params 4);
  Alcotest.(check int) "shrink halves" 4 (Step_policy.shrink Step_policy.MM params 8)

let test_step_aa () =
  Alcotest.(check int) "grow +4" 8 (Step_policy.grow Step_policy.AA params 4);
  Alcotest.(check int) "shrink -4" 4 (Step_policy.shrink Step_policy.AA params 8)

let test_step_mixed () =
  Alcotest.(check int) "AM grows additively" 8 (Step_policy.grow Step_policy.AM params 4);
  Alcotest.(check int) "AM shrinks multiplicatively" 4 (Step_policy.shrink Step_policy.AM params 8);
  Alcotest.(check int) "MA grows multiplicatively" 8 (Step_policy.grow Step_policy.MA params 4);
  Alcotest.(check int) "MA shrinks additively" 4 (Step_policy.shrink Step_policy.MA params 8)

let test_step_clamped () =
  Alcotest.(check int) "never below min" params.Step_policy.min_step
    (Step_policy.shrink Step_policy.AA params 2);
  Alcotest.(check int) "never above max" params.Step_policy.max_step
    (Step_policy.grow Step_policy.MM params params.Step_policy.max_step)

let test_step_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Step_policy.of_string (Step_policy.to_string p) = Some p))
    Step_policy.all;
  Alcotest.(check bool) "unknown" true (Step_policy.of_string "XY" = None)

(* ---- DREAM allocator helpers ---- *)

(* A task seeing every switch of a network of [n]. *)
let topology n =
  Topology.create (Dream_util.Rng.create 1) ~filter:(Prefix.of_string "10.0.0.0/8")
    ~num_switches:n ~switches_per_task:n

let topo01 = topology 2

let topo0 = topology 1


(* A task with controllable accuracy and usage cells, the same on every
   switch. *)
type task = {
  id : int;
  topology : Topology.t;
  bound : float;
  accuracy : float ref;
  used : int ref;
}

let view ?(topology = topo01) ?(bound = 0.8) ~id ~accuracy ~used () =
  { id; topology; bound; accuracy; used }

let admission v =
  { Task_view.id = v.id; topology = v.topology; switches = Switch_mask.full v.topology }

let try_admit a v = Dream_allocator.try_admit a (admission v)

(* One round over [tasks], in list order, on the two-switch allocator. *)
let reallocate a tasks =
  let table = Task_view.table ~num_switches:2 in
  Task_view.reserve table (List.length tasks);
  table.Task_view.rows <- List.length tasks;
  List.iteri
    (fun row v ->
      table.Task_view.ids.(row) <- v.id;
      table.Task_view.bounds.(row) <- v.bound;
      for sw = 0 to 1 do
        table.Task_view.overall.((row * 2) + sw) <- !(v.accuracy);
        table.Task_view.used.((row * 2) + sw) <- !(v.used)
      done)
    tasks;
  Dream_allocator.reallocate a table

let mk_allocator ?(config = Dream_allocator.default_config) ?(capacity = 1000) () =
  Dream_allocator.create config ~capacities:[ (0, capacity); (1, capacity) ]

let total_alloc a ~task_id = Dream_allocator.total_of a ~task_id

(* A switch's phantom (unallocated) entries, as the allocator's checkpoint
   text writes them: the [phantom] line of the switch's state. *)
let phantom a sw =
  String.split_on_char '\n' (Codec.encode Dream_allocator.codec a)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "phantom"; v ] -> Some (int_of_string v)
         | _ -> None)
  |> Fun.flip List.nth sw

let check_invariants a =
  match Dream_allocator.check_invariants a with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ---- DREAM allocator ---- *)

let test_admit_takes_from_phantom () =
  let a = mk_allocator () in
  Alcotest.(check int) "phantom starts at capacity" 1000 (phantom a 0);
  let acc = ref 0.0 and used = ref 1 in
  Alcotest.(check bool) "admitted" true
    (try_admit a (view ~id:0 ~accuracy:acc ~used ()));
  Alcotest.(check int) "one counter per switch" 2 (total_alloc a ~task_id:0);
  Alcotest.(check int) "phantom decremented" 999 (phantom a 0);
  check_invariants a

let test_admission_rejects_without_headroom () =
  (* Tiny switch: capacity 20, headroom target 1 (5%).  Fill it with poor
     demanding tasks until admission fails. *)
  let a = mk_allocator ~capacity:20 () in
  let mk i =
    let acc = ref 0.0 in
    (* always poor *)
    let alloc = ref 1 in
    (view ~id:i ~accuracy:acc ~used:alloc (), alloc)
  in
  let tasks = List.init 12 mk in
  let admitted =
    List.filter (fun (v, _) -> try_admit a v) tasks
  in
  (* Everyone is poor and demanding: after some rounds the phantom drains
     and admission must refuse new tasks. *)
  let views = List.map fst admitted in
  for _ = 1 to 10 do
    reallocate a views;
    (* Track each task's usage = its allocation (always demanding). *)
    List.iter
      (fun (v, alloc) ->
        if List.memq v views then
          alloc := Dream_allocator.allocation_on a ~task_id:v.id 0)
      admitted
  done;
  check_invariants a;
  let acc = ref 0.0 and used = ref 1 in
  Alcotest.(check bool) "late arrival rejected" false
    (try_admit a (view ~id:99 ~accuracy:acc ~used ()))

let test_redistribution_rich_to_poor () =
  let a = mk_allocator ~capacity:200 () in
  let rich_acc = ref 0.95 and poor_acc = ref 0.3 in
  let rich_used = ref 0 and poor_used = ref 0 in
  let rich = view ~id:0 ~accuracy:rich_acc ~used:rich_used () in
  let poor = view ~id:1 ~accuracy:poor_acc ~used:poor_used () in
  ignore (try_admit a rich);
  ignore (try_admit a poor);
  (* Let the rich task accumulate (it is "demanding" while using all). *)
  let sync_used () =
    rich_used :=
      (Dream_allocator.allocation_on a ~task_id:0 0);
    poor_used :=
      (Dream_allocator.allocation_on a ~task_id:1 0)
  in
  for _ = 1 to 8 do
    sync_used ();
    reallocate a [ rich; poor ]
  done;
  check_invariants a;
  let rich_total = total_alloc a ~task_id:0 and poor_total = total_alloc a ~task_id:1 in
  Alcotest.(check bool)
    (Printf.sprintf "poor grew past rich (%d vs %d)" poor_total rich_total)
    true (poor_total > rich_total)

let test_allocation_floor () =
  let a = mk_allocator ~capacity:100 () in
  let rich_acc = ref 1.0 and poor_acc = ref 0.0 in
  let rich_used = ref 1 and poor_used = ref 100 in
  let rich = view ~id:0 ~accuracy:rich_acc ~used:rich_used () in
  let poor = view ~id:1 ~accuracy:poor_acc ~used:poor_used () in
  ignore (try_admit a rich);
  ignore (try_admit a poor);
  for _ = 1 to 20 do
    poor_used :=
      (Dream_allocator.allocation_on a ~task_id:1 0);
    reallocate a [ rich; poor ]
  done;
  check_invariants a;
  List.iter
    (fun v -> Alcotest.(check bool) "rich keeps at least the floor" true (v >= 1))
    [ Dream_allocator.allocation_on a ~task_id:0 0; Dream_allocator.allocation_on a ~task_id:0 1 ]

let test_release_returns_to_phantom () =
  let a = mk_allocator () in
  let acc = ref 0.0 and used = ref 1 in
  ignore (try_admit a (view ~id:0 ~accuracy:acc ~used ()));
  Dream_allocator.release a ~task_id:0;
  Alcotest.(check int) "phantom restored" 1000 (phantom a 0);
  Alcotest.(check int) "no allocation left" 0 (total_alloc a ~task_id:0);
  check_invariants a

let test_surplus_flows_to_users () =
  (* One task using everything it has, idle capacity around: its allocation
     should keep growing from the surplus even while it is neutral. *)
  let a = mk_allocator ~capacity:500 () in
  let acc = ref 0.85 in
  (* neutral: in (bound, bound + hysteresis) *)
  let used = ref 1 in
  let v = view ~id:0 ~accuracy:acc ~used () in
  ignore (try_admit a v);
  for _ = 1 to 6 do
    used :=
      (Dream_allocator.allocation_on a ~task_id:0 0);
    reallocate a [ v ]
  done;
  check_invariants a;
  Alcotest.(check bool) "absorbed idle capacity" true (total_alloc a ~task_id:0 > 50);
  Alcotest.(check bool) "phantom stays at target" true (phantom a 0 >= 25)

let test_unused_allocation_reclaimed () =
  let a = mk_allocator ~capacity:500 () in
  let acc = ref 0.3 in
  (* poor but unable to use more counters *)
  let used = ref 1 in
  let v = view ~id:0 ~accuracy:acc ~used () in
  ignore (try_admit a v);
  (* Give it a lot while demanding... *)
  for _ = 1 to 6 do
    used :=
      (Dream_allocator.allocation_on a ~task_id:0 0);
    reallocate a [ v ]
  done;
  let peak = total_alloc a ~task_id:0 in
  (* ...then freeze its usage low: the allocator must reclaim the excess. *)
  used := 4;
  for _ = 1 to 20 do
    reallocate a [ v ]
  done;
  check_invariants a;
  let final = total_alloc a ~task_id:0 in
  Alcotest.(check bool)
    (Printf.sprintf "reclaimed %d -> %d" peak final)
    true
    (final < peak / 2)

let test_congestion_flag () =
  let a = mk_allocator ~capacity:40 () in
  (* Many always-poor, always-demanding tasks exhaust supply. *)
  let mk i =
    let acc = ref 0.0 in
    let used = ref 1000 in
    (* claims to use everything *)
    view ~id:i ~accuracy:acc ~used ()
  in
  let views = List.map mk [ 0; 1; 2; 3 ] in
  List.iter (fun v -> ignore (try_admit a v)) views;
  for _ = 1 to 6 do
    reallocate a views
  done;
  Alcotest.(check bool) "congested" true (Dream_allocator.congested a 0);
  check_invariants a

let test_drop_priority_order_under_shortage () =
  let a = mk_allocator ~capacity:64 () in
  let mk i =
    let acc = ref 0.0 in
    let used = ref 1000 in
    view ~id:i ~accuracy:acc ~used ()
  in
  (* Tasks drop latest arrival first, so under shortage the earliest
     arrival is served first. *)
  let precious = mk 0 and expendable = mk 1 in
  ignore (try_admit a precious);
  ignore (try_admit a expendable);
  for _ = 1 to 8 do
    reallocate a [ precious; expendable ]
  done;
  check_invariants a;
  Alcotest.(check bool) "earlier arrival got more" true
    (total_alloc a ~task_id:0 >= total_alloc a ~task_id:1);
  Alcotest.check_raises "rows out of id order"
    (Invalid_argument "Dream_allocator.reallocate: rows out of task-id order") (fun () ->
      reallocate a [ expendable; precious ])

let prop_invariants_random_rounds =
  QCheck.Test.make ~name:"allocations + phantom = capacity under random rounds" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_bound 100) bool))
    (fun script ->
      let a = mk_allocator ~capacity:300 () in
      let tasks = Hashtbl.create 8 in
      let next_id = ref 0 in
      List.iter
        (fun (accuracy_pct, arrive) ->
          if arrive || Hashtbl.length tasks = 0 then begin
            let id = !next_id in
            incr next_id;
            let acc = ref (float_of_int accuracy_pct /. 100.0) in
            let used = ref 10 in
            let v = view ~id ~accuracy:acc ~used () in
            if try_admit a v then Hashtbl.replace tasks id (v, acc, used)
          end
          else begin
            (* Perturb accuracies and usage, then run a round. *)
            Hashtbl.iter
              (fun id (_, acc, used) ->
                acc := float_of_int ((accuracy_pct + (id * 17)) mod 101) /. 100.0;
                used :=
                  (Dream_allocator.allocation_on a ~task_id:id 0))
              tasks;
            let views =
              List.sort
                (fun v w -> Int.compare v.id w.id)
                (Hashtbl.fold (fun _ (v, _, _) l -> v :: l) tasks [])
            in
            reallocate a views
          end)
        script;
      Dream_allocator.check_invariants a = Ok ())

(* ---- Differential oracle: the list-based round ---- *)

(* A random script over 4 switches, run on the allocator and on the
   list-based round it replaced: admissions, releases and rounds, where
   each admitted task's accuracy per switch is drawn anywhere in [0, 1] or
   at its bound, and its usage sits at, under or over its allocation.
   After every step the two must agree on every admission and on the
   whole checkpoint text: slots (allocation, step, status memory),
   phantom, congestion and the last round's poor and rich steps.  Each
   case is one seed of [Rng], which a failure reports. *)
let oracle_switches = 4

let oracle_script seed =
  let rng = Rng.create seed in
  let policy = Rng.pick rng (Array.of_list Step_policy.all) in
  let config =
    { Dream_allocator.headroom_fraction = Rng.pick rng [| 0.0; 0.05; 0.2 |]; policy }
  in
  let capacity = Rng.pick rng [| 16; 40; 128; 600 |] in
  let capacities = List.init oracle_switches (fun sw -> (sw, capacity)) in
  let a = Dream_allocator.create config ~capacities in
  let r = Reference.create config ~capacities in
  let filter = Prefix.of_string "10.0.0.0/8" in
  let tasks = ref [] (* (view, bound), newest first *) and next_id = ref 0 in
  let table = Task_view.table ~num_switches:oracle_switches in
  let agree what =
    let got = Codec.encode Dream_allocator.codec a and want = Codec.encode Reference.codec r in
    if got <> want then QCheck.Test.fail_reportf "seed %d, %s: allocator state differs" seed what
  in
  for step = 1 to 40 do
    match Rng.int rng 6 with
    | 0 | 1 ->
      let topology =
        Topology.create (Rng.split rng) ~filter ~num_switches:oracle_switches
          ~switches_per_task:(Rng.pick rng [| 1; 2; 4 |])
      in
      let view =
        { Task_view.id = !next_id; topology; switches = Switch_mask.full topology }
      in
      incr next_id;
      let admitted = Dream_allocator.try_admit a view in
      if admitted <> Reference.try_admit r view then
        QCheck.Test.fail_reportf "seed %d, step %d: admissions differ" seed step;
      if admitted then
        tasks := (view, Rng.pick rng [| 0.5; 0.8; 0.95 |]) :: !tasks;
      agree "admission"
    | 2 when !tasks <> [] ->
      let victim, _ = List.nth !tasks (Rng.int rng (List.length !tasks)) in
      let id = victim.Task_view.id in
      Dream_allocator.release a ~task_id:id;
      Reference.release r ~task_id:id;
      tasks := List.filter (fun (v, _) -> v.Task_view.id <> id) !tasks;
      agree "release"
    | _ ->
      (* Rows in id order, as the controller fills them. *)
      let rows = List.rev !tasks in
      Task_view.reserve table (List.length rows);
      table.Task_view.rows <- List.length rows;
      List.iteri
        (fun row ((view : Task_view.t), bound) ->
          table.Task_view.ids.(row) <- view.Task_view.id;
          table.Task_view.bounds.(row) <- bound;
          for sw = 0 to oracle_switches - 1 do
            let cell = (row * oracle_switches) + sw in
            table.Task_view.overall.(cell) <-
              (match Rng.int rng 4 with
              | 0 -> bound
              | 1 -> bound +. Reference.hysteresis
              | _ -> Rng.float rng 1.0);
            let alloc = Dream_allocator.allocation_on a ~task_id:view.Task_view.id sw in
            table.Task_view.used.(cell) <-
              (match Rng.int rng 3 with
              | 0 -> alloc
              | 1 -> max 0 (alloc - 1 - Rng.int rng 8)
              | _ -> alloc + 1 + Rng.int rng 8)
          done)
        rows;
      Dream_allocator.reallocate a table;
      Reference.reallocate r table;
      agree (Printf.sprintf "round at step %d" step)
  done;
  true

let prop_matches_list_round =
  QCheck.Test.make ~name:"allocation round = list-based reference round" ~count:300
    QCheck.(int_bound 1_000_000)
    oracle_script

(* ---- Equal ---- *)

let test_equal_shares () =
  let e = Membership_allocator.create Membership_allocator.Equal ~capacities:[ (0, 100) ] in
  let mk i = view ~topology:topo0 ~id:i ~accuracy:(ref 0.5) ~used:(ref 1) () in
  ignore (Membership_allocator.try_admit e (admission (mk 0)));
  ignore (Membership_allocator.try_admit e (admission (mk 1)));
  ignore (Membership_allocator.try_admit e (admission (mk 2)));
  let total =
    List.fold_left
      (fun acc id ->
        acc
        + (Membership_allocator.allocation_on e ~task_id:id 0))
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "shares fill capacity" 100 total;
  Membership_allocator.release e ~task_id:1;
  Alcotest.(check int) "share grows after release" 50
    (Membership_allocator.allocation_on e ~task_id:0 0)

let test_equal_more_tasks_than_capacity () =
  let e = Membership_allocator.create Membership_allocator.Equal ~capacities:[ (0, 2) ] in
  let mk i = view ~topology:topo0 ~id:i ~accuracy:(ref 0.5) ~used:(ref 1) () in
  List.iter
    (fun i -> Alcotest.(check bool) "Equal admits" true (Membership_allocator.try_admit e (admission (mk i))))
    [ 0; 1; 2; 3 ];
  let allocs =
    List.map
      (fun id ->
        Membership_allocator.allocation_on e ~task_id:id 0)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "sum within capacity" 2 (List.fold_left ( + ) 0 allocs)

(* ---- Fixed ---- *)

let test_fixed_admission () =
  let f = Membership_allocator.create (Membership_allocator.Fixed 4) ~capacities:[ (0, 100) ] in
  let mk i = view ~topology:topo0 ~id:i ~accuracy:(ref 0.5) ~used:(ref 1) () in
  Alcotest.(check bool) "1" true (Membership_allocator.try_admit f (admission (mk 0)));
  Alcotest.(check int) "share" 25 (Membership_allocator.allocation_on f ~task_id:0 0);
  Alcotest.(check bool) "2" true (Membership_allocator.try_admit f (admission (mk 1)));
  Alcotest.(check bool) "3" true (Membership_allocator.try_admit f (admission (mk 2)));
  Alcotest.(check bool) "4" true (Membership_allocator.try_admit f (admission (mk 3)));
  Alcotest.(check bool) "5 rejected" false (Membership_allocator.try_admit f (admission (mk 4)));
  Membership_allocator.release f ~task_id:0;
  Alcotest.(check bool) "admits again after release" true (Membership_allocator.try_admit f (admission (mk 5)))

let test_fixed_invalid () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Membership_allocator.create: fraction denominator must be positive")
    (fun () ->
      ignore (Membership_allocator.create (Membership_allocator.Fixed 0) ~capacities:[ (0, 100) ]))

(* ---- Facade ---- *)

let test_facade_names () =
  Alcotest.(check string) "dream" "DREAM"
    (Allocator.strategy_name (Allocator.Dream Dream_allocator.default_config));
  Alcotest.(check string) "equal" "Equal" (Allocator.strategy_name Allocator.Equal);
  Alcotest.(check string) "fixed" "Fixed_32" (Allocator.strategy_name (Allocator.Fixed 32))

let test_facade_drop_support () =
  let caps = [ (0, 100) ] in
  Alcotest.(check bool) "dream drops" true
    (Allocator.supports_drop (Allocator.create (Allocator.Dream Dream_allocator.default_config) ~capacities:caps));
  Alcotest.(check bool) "equal never drops" false
    (Allocator.supports_drop (Allocator.create Allocator.Equal ~capacities:caps));
  Alcotest.(check bool) "fixed never drops" false
    (Allocator.supports_drop (Allocator.create (Allocator.Fixed 32) ~capacities:caps))

let () =
  Alcotest.run "dream.alloc"
    [
      ( "step-policy",
        [
          Alcotest.test_case "MM" `Quick test_step_mm;
          Alcotest.test_case "AA" `Quick test_step_aa;
          Alcotest.test_case "AM and MA" `Quick test_step_mixed;
          Alcotest.test_case "clamped" `Quick test_step_clamped;
          Alcotest.test_case "string roundtrip" `Quick test_step_string_roundtrip;
        ] );
      ( "dream",
        [
          Alcotest.test_case "admit takes from phantom" `Quick test_admit_takes_from_phantom;
          Alcotest.test_case "admission rejects without headroom" `Quick
            test_admission_rejects_without_headroom;
          Alcotest.test_case "redistributes rich to poor" `Quick test_redistribution_rich_to_poor;
          Alcotest.test_case "allocation floor" `Quick test_allocation_floor;
          Alcotest.test_case "release returns to phantom" `Quick test_release_returns_to_phantom;
          Alcotest.test_case "surplus flows to users" `Quick test_surplus_flows_to_users;
          Alcotest.test_case "unused allocation reclaimed" `Quick test_unused_allocation_reclaimed;
          Alcotest.test_case "congestion flag" `Quick test_congestion_flag;
          Alcotest.test_case "priority under shortage" `Quick
            test_drop_priority_order_under_shortage;
          QCheck_alcotest.to_alcotest prop_invariants_random_rounds;
          QCheck_alcotest.to_alcotest prop_matches_list_round;
        ] );
      ( "equal",
        [
          Alcotest.test_case "shares" `Quick test_equal_shares;
          Alcotest.test_case "more tasks than capacity" `Quick test_equal_more_tasks_than_capacity;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "admission" `Quick test_fixed_admission;
          Alcotest.test_case "invalid" `Quick test_fixed_invalid;
        ] );
      ( "facade",
        [
          Alcotest.test_case "names" `Quick test_facade_names;
          Alcotest.test_case "drop support" `Quick test_facade_drop_support;
        ] );
    ]
