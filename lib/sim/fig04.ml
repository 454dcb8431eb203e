module Step_policy = Dream_alloc.Step_policy

type trace = { policy : Step_policy.t; allocations : int array }

(* The paper-style moving target: jumps between plateaus. *)
let goal epoch =
  if epoch < 100 then 400
  else if epoch < 200 then 1200
  else if epoch < 300 then 600
  else if epoch < 400 then 1400
  else 300

let simulate policy ~epochs =
  let params = Step_policy.default_params in
  let allocations = Array.make epochs 0 in
  let alloc = ref 100 and step = ref params.Step_policy.addend in
  let last_status = ref None and changed = ref false in
  let just_flipped = ref false in
  for epoch = 0 to epochs - 1 do
    let target = goal epoch in
    let status = if !alloc >= target then `Rich else `Poor in
    begin
      match (!changed, !last_status) with
      | true, Some previous when previous = status ->
        (* Growth pauses for one round after a flip, damping the
           oscillation around the target. *)
        if !just_flipped then just_flipped := false
        else step := Step_policy.grow policy params !step
      | true, Some _ ->
        step := Step_policy.shrink policy params !step;
        just_flipped := true
      | true, None | false, _ -> ()
    end;
    last_status := Some status;
    let before = !alloc in
    (match status with
    | `Poor -> alloc := !alloc + !step
    | `Rich -> alloc := max 0 (!alloc - !step));
    changed := !alloc <> before;
    allocations.(epoch) <- !alloc
  done;
  { policy; allocations }

(* Mean |allocation - goal| over the run — the convergence score. *)
let mean_absolute_error trace =
  let n = Array.length trace.allocations in
  let sum = ref 0.0 in
  Array.iteri
    (fun epoch alloc -> sum := !sum +. Float.abs (float_of_int (alloc - goal epoch)))
    trace.allocations;
  !sum /. float_of_int (max 1 n)

let run ~quick =
  let epochs = if quick then 250 else 500 in
  Table.heading "Figure 4: step update policies tracking a moving resource target";
  let sample = max 1 (epochs / 25) in
  let traces = List.map (fun p -> simulate p ~epochs) Step_policy.all in
  Table.series ~name:"Goal"
    (List.init (epochs / sample) (fun i ->
         let e = i * sample in
         (string_of_int e, float_of_int (goal e))));
  List.iter
    (fun t ->
      Table.series
        ~name:(Step_policy.to_string t.policy)
        (List.init (epochs / sample) (fun i ->
             let e = i * sample in
             (string_of_int e, float_of_int t.allocations.(e)))))
    traces;
  Table.subheading "mean |allocation - goal| (lower is better; MM should win)";
  List.iter
    (fun t ->
      Table.row [ Step_policy.to_string t.policy; Table.f2 (mean_absolute_error t) ])
    traces;
  List.map
    (fun t ->
      Dream_obs.Bench_snapshot.metric ~unit_:"entries"
        ~direction:Dream_obs.Bench_snapshot.Lower_better
        (Printf.sprintf "mae_%s" (Step_policy.to_string t.policy))
        (mean_absolute_error t))
    traces
