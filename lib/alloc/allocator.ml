type strategy = Dream of Dream_allocator.config | Equal | Fixed of int

let strategy_name = function
  | Dream _ -> "DREAM"
  | Equal -> "Equal"
  | Fixed k -> Printf.sprintf "Fixed_%d" k

type impl =
  | Dream_impl of Dream_allocator.t
  | Equal_impl of Equal_allocator.t
  | Fixed_impl of Fixed_allocator.t

type t = { strategy : strategy; impl : impl }

let create strategy ~capacities =
  let impl =
    match strategy with
    | Dream config -> Dream_impl (Dream_allocator.create config ~capacities)
    | Equal -> Equal_impl (Equal_allocator.create ~capacities)
    | Fixed k -> Fixed_impl (Fixed_allocator.create ~fraction_denominator:k ~capacities)
  in
  { strategy; impl }

let strategy t = t.strategy

let try_admit t view =
  match t.impl with
  | Dream_impl a -> Dream_allocator.try_admit a view
  | Equal_impl a ->
    Equal_allocator.admit a view;
    true
  | Fixed_impl a -> Fixed_allocator.try_admit a view

let force_admit t view =
  match t.impl with
  | Dream_impl a -> Dream_allocator.force_admit a view
  | Equal_impl a -> Equal_allocator.admit a view
  | Fixed_impl a -> Fixed_allocator.force_admit a view

let release t ~task_id =
  match t.impl with
  | Dream_impl a -> Dream_allocator.release a ~task_id
  | Equal_impl a -> Equal_allocator.release a ~task_id
  | Fixed_impl a -> Fixed_allocator.release a ~task_id

let reallocate t views =
  match t.impl with
  | Dream_impl a -> Dream_allocator.reallocate a views
  | Equal_impl _ | Fixed_impl _ -> ()

let allocation_of t ~task_id =
  match t.impl with
  | Dream_impl a -> Dream_allocator.allocation_of a ~task_id
  | Equal_impl a -> Equal_allocator.allocation_of a ~task_id
  | Fixed_impl a -> Fixed_allocator.allocation_of a ~task_id

let add_entry _ v acc = acc + v

let total_of t ~task_id = Dream_traffic.Switch_id.Map.fold add_entry (allocation_of t ~task_id) 0

let congested t sw =
  match t.impl with
  | Dream_impl a -> Dream_allocator.congested a sw
  | Equal_impl _ | Fixed_impl _ -> false

let supports_drop t = match t.impl with Dream_impl _ -> true | Equal_impl _ | Fixed_impl _ -> false

let dream t = match t.impl with Dream_impl a -> Some a | Equal_impl _ | Fixed_impl _ -> None

let force_allocation t ~task_id ~switch ~alloc =
  match t.impl with
  | Dream_impl a -> Dream_allocator.force_allocation a ~task_id ~switch ~alloc
  | Equal_impl _ | Fixed_impl _ ->
    (* Membership allocators derive allocations from admissions, which the
       journal replays separately. *)
    ()

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "allocator";
  match t.impl with
  | Dream_impl a ->
    C.string w "strategy" "dream";
    Dream_allocator.emit w a
  | Equal_impl a ->
    C.string w "strategy" "equal";
    Equal_allocator.emit w a
  | Fixed_impl a ->
    C.string w "strategy" "fixed";
    C.int w "denominator" (match t.strategy with Fixed k -> k | Dream _ | Equal -> 0);
    Fixed_allocator.emit w a

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "allocator";
  match C.string_field r "strategy" with
  | "dream" ->
    let a = Dream_allocator.parse r in
    { strategy = Dream (Dream_allocator.config a); impl = Dream_impl a }
  | "equal" -> { strategy = Equal; impl = Equal_impl (Equal_allocator.parse r) }
  | "fixed" ->
    let k = C.int_field r "denominator" in
    { strategy = Fixed k; impl = Fixed_impl (Fixed_allocator.parse r) }
  | s -> C.parse_error 0 (Printf.sprintf "unknown allocator strategy %S" s)
