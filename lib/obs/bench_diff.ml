type status = Unchanged | Improved | Regressed | Missing | Added

type row = {
  r_name : string;
  r_base : float option;
  r_current : float option;
  r_delta_pct : float;
  r_direction : Bench_snapshot.direction;
  r_status : status;
}

type report = { d_figure : string; d_rows : row list; d_failures : int }

(* Relative change for display and trends: a move off a zero baseline has
   no relative scale, so it reads as an infinite-percent change. *)
let delta_pct ~base ~current =
  let moved = Float.abs (current -. base) in
  if Float.abs base > 0.0 then (current -. base) /. Float.abs base *. 100.0
  else if moved > 0.0 then begin
    if current > base then Float.infinity else Float.neg_infinity
  end
  else 0.0

(* Gated metrics come from seeded runs and repeat bit for bit, so the
   gate is equality: any move, either way, fails. *)
let status_of direction ~base ~current =
  match direction with
  | Bench_snapshot.Info -> Unchanged
  | Bench_snapshot.Lower_better | Bench_snapshot.Higher_better when Float.equal base current ->
    Unchanged
  | Bench_snapshot.Lower_better -> if current > base then Regressed else Improved
  | Bench_snapshot.Higher_better -> if current < base then Regressed else Improved

let fails = function Regressed | Improved | Missing -> true | Unchanged | Added -> false

let alloc_words (gc : Gc_stats.reading) =
  gc.Gc_stats.minor_words +. gc.Gc_stats.major_words -. gc.Gc_stats.promoted_words

(* Phases become informational rows so wall/GC movement is visible in
   every diff without ever gating (machine noise must not fail CI). *)
let phase_rows (base : Profile.stat list) (current : Profile.stat list) =
  let find path stats =
    List.find_opt (fun (s : Profile.stat) -> String.equal s.Profile.path path) stats
  in
  let paths =
    List.sort_uniq String.compare
      (List.map (fun (s : Profile.stat) -> s.Profile.path) (base @ current))
  in
  List.concat_map
    (fun path ->
      let pick proj stats = Option.map proj (find path stats) in
      let info name proj =
        let b = pick proj base and c = pick proj current in
        let delta =
          match (b, c) with
          | Some b, Some c -> delta_pct ~base:b ~current:c
          | Some _, None | None, Some _ | None, None -> 0.0
        in
        {
          r_name = Printf.sprintf "phase:%s %s" path name;
          r_base = b;
          r_current = c;
          r_delta_pct = delta;
          r_direction = Bench_snapshot.Info;
          r_status = Unchanged;
        }
      in
      [
        info "wall_ms" (fun s -> s.Profile.wall_ms);
        info "alloc_words" (fun s -> alloc_words s.Profile.gc);
      ])
    paths

let diff ~(base : Bench_snapshot.t) (current : Bench_snapshot.t) =
  if not (String.equal base.Bench_snapshot.figure current.Bench_snapshot.figure) then
    Error
      (Printf.sprintf "figure mismatch: base is %S, new is %S" base.Bench_snapshot.figure
         current.Bench_snapshot.figure)
  else if base.Bench_snapshot.quick <> current.Bench_snapshot.quick then
    Error "scale mismatch: one snapshot is quick, the other full"
  else begin
    let find name (metrics : Bench_snapshot.metric list) =
      List.find_opt (fun (m : Bench_snapshot.metric) -> String.equal m.Bench_snapshot.m_name name)
        metrics
    in
    let base_rows =
      List.map
        (fun (bm : Bench_snapshot.metric) ->
          let base_value = bm.Bench_snapshot.m_value in
          match find bm.Bench_snapshot.m_name current.Bench_snapshot.metrics with
          | Some cm ->
            let current_value = cm.Bench_snapshot.m_value in
            {
              r_name = bm.Bench_snapshot.m_name;
              r_base = Some base_value;
              r_current = Some current_value;
              r_delta_pct = delta_pct ~base:base_value ~current:current_value;
              r_direction = bm.Bench_snapshot.m_direction;
              r_status =
                status_of bm.Bench_snapshot.m_direction ~base:base_value ~current:current_value;
            }
          | None ->
            {
              r_name = bm.Bench_snapshot.m_name;
              r_base = Some base_value;
              r_current = None;
              r_delta_pct = 0.0;
              r_direction = bm.Bench_snapshot.m_direction;
              r_status = Missing;
            })
        base.Bench_snapshot.metrics
    in
    let added =
      List.filter_map
        (fun (cm : Bench_snapshot.metric) ->
          match find cm.Bench_snapshot.m_name base.Bench_snapshot.metrics with
          | Some _ -> None
          | None ->
            Some
              {
                r_name = cm.Bench_snapshot.m_name;
                r_base = None;
                r_current = Some cm.Bench_snapshot.m_value;
                r_delta_pct = 0.0;
                r_direction = cm.Bench_snapshot.m_direction;
                r_status = Added;
              })
        current.Bench_snapshot.metrics
    in
    let rows =
      base_rows @ added @ phase_rows base.Bench_snapshot.phases current.Bench_snapshot.phases
    in
    let failures = List.length (List.filter (fun r -> fails r.r_status) rows) in
    Ok { d_figure = base.Bench_snapshot.figure; d_rows = rows; d_failures = failures }
  end

let failures reports = List.fold_left (fun n r -> n + r.d_failures) 0 reports

(* ---- rendering ---- *)

let status_name = function
  | Unchanged -> "ok"
  | Improved -> "IMPROVED"
  | Regressed -> "REGRESSED"
  | Missing -> "MISSING"
  | Added -> "added"

(* The snapshot's own spelling, which tells every float apart, so a
   one-ulp move that fails the gate shows in the row. *)
let opt_value = function Some v -> Json.to_string (Json.Float v) | None -> "-"

let pp_report fmt r =
  Format.fprintf fmt "figure %s: %d failure(s)@." r.d_figure r.d_failures;
  List.iter
    (fun row ->
      Format.fprintf fmt "  %-9s %-42s %24s -> %-24s %+.2f%%%s@." (status_name row.r_status)
        row.r_name (opt_value row.r_base) (opt_value row.r_current) row.r_delta_pct
        (match row.r_status with
        | Improved -> "  re-snapshot the baseline"
        | Unchanged | Regressed | Missing | Added -> ""))
    r.d_rows

let row_to_json row =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  Json.Obj
    [
      ("name", Json.Str row.r_name);
      ("base", opt row.r_base);
      ("current", opt row.r_current);
      ("delta_pct",
       if Float.is_finite row.r_delta_pct then Json.Float row.r_delta_pct
       else Json.Str (if row.r_delta_pct > 0.0 then "inf" else "-inf"));
      ("direction", Json.Str (Bench_snapshot.direction_to_string row.r_direction));
      ("status", Json.Str (status_name row.r_status));
    ]

let report_to_json r =
  Json.Obj
    [
      ("figure", Json.Str r.d_figure);
      ("failures", Json.Int r.d_failures);
      ("rows", Json.List (List.map row_to_json r.d_rows));
    ]

(* ---- trend ---- *)

type trend_row = {
  t_figure : string;
  t_name : string;
  t_unit : string;
  t_points : (string * float) list;
  t_min : float;
  t_max : float;
  t_delta_pct : float;
}

let trend series =
  (* (figure, metric) -> points, preserving first-seen order. *)
  let order = ref [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (label, (snap : Bench_snapshot.t)) ->
      let push name unit_ value =
        let key = (snap.Bench_snapshot.figure, name) in
        match Hashtbl.find_opt tbl key with
        | Some (u, rev_points) -> Hashtbl.replace tbl key (u, (label, value) :: rev_points)
        | None ->
          order := key :: !order;
          Hashtbl.replace tbl key (unit_, [ (label, value) ])
      in
      List.iter
        (fun (m : Bench_snapshot.metric) ->
          push m.Bench_snapshot.m_name m.Bench_snapshot.m_unit m.Bench_snapshot.m_value)
        snap.Bench_snapshot.metrics;
      List.iter
        (fun (p : Profile.stat) ->
          push (Printf.sprintf "phase:%s wall_ms" p.Profile.path) "ms" p.Profile.wall_ms;
          push
            (Printf.sprintf "phase:%s alloc_words" p.Profile.path)
            "words" (alloc_words p.Profile.gc))
        snap.Bench_snapshot.phases)
    series;
  List.rev_map
    (fun ((figure, name) as key) ->
      match Hashtbl.find_opt tbl key with
      | None -> assert false
      | Some (unit_, rev_points) ->
        let points = List.rev rev_points in
        let values = List.map snd points in
        let vmin = List.fold_left Float.min Float.infinity values in
        let vmax = List.fold_left Float.max Float.neg_infinity values in
        let delta =
          match (points, List.rev points) with
          | (_, first) :: _, (_, last) :: _ -> delta_pct ~base:first ~current:last
          | [], _ | _, [] -> 0.0
        in
        {
          t_figure = figure;
          t_name = name;
          t_unit = unit_;
          t_points = points;
          t_min = vmin;
          t_max = vmax;
          t_delta_pct = delta;
        })
    !order

let pp_trend fmt rows =
  let last_figure = ref "" in
  List.iter
    (fun row ->
      if not (String.equal !last_figure row.t_figure) then begin
        last_figure := row.t_figure;
        Format.fprintf fmt "figure %s:@." row.t_figure
      end;
      let values = String.concat " " (List.map (fun (_, v) -> Printf.sprintf "%.6g" v) row.t_points) in
      Format.fprintf fmt "  %-42s %-6s n=%-3d min %.6g  max %.6g  last/first %+.2f%%  [%s]@."
        row.t_name row.t_unit (List.length row.t_points) row.t_min row.t_max row.t_delta_pct
        values)
    rows
