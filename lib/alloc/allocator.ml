type strategy = Dream of Dream_allocator.config | Equal | Fixed of int

let strategy_name = function
  | Dream _ -> "DREAM"
  | Equal -> "Equal"
  | Fixed k -> Printf.sprintf "Fixed_%d" k

type impl = Dream_impl of Dream_allocator.t | Membership_impl of Membership_allocator.t

type t = { strategy : strategy; impl : impl }

let create strategy ~capacities =
  let impl =
    match strategy with
    | Dream config -> Dream_impl (Dream_allocator.create config ~capacities)
    | Equal -> Membership_impl (Membership_allocator.create Equal ~capacities)
    | Fixed k -> Membership_impl (Membership_allocator.create (Fixed k) ~capacities)
  in
  { strategy; impl }

let try_admit t view =
  match t.impl with
  | Dream_impl a -> Dream_allocator.try_admit a view
  | Membership_impl a -> Membership_allocator.try_admit a view

let force_admit t view =
  match t.impl with
  | Dream_impl a -> Dream_allocator.force_admit a view
  | Membership_impl a -> Membership_allocator.force_admit a view

let release t ~task_id =
  match t.impl with
  | Dream_impl a -> Dream_allocator.release a ~task_id
  | Membership_impl a -> Membership_allocator.release a ~task_id

let reallocate t views =
  match t.impl with
  | Dream_impl a -> Dream_allocator.reallocate a views
  | Membership_impl _ -> ()

let allocation_on t ~task_id sw =
  match t.impl with
  | Dream_impl a -> Dream_allocator.allocation_on a ~task_id sw
  | Membership_impl a -> Membership_allocator.allocation_on a ~task_id sw

let total_of t ~task_id =
  match t.impl with
  | Dream_impl a -> Dream_allocator.total_of a ~task_id
  | Membership_impl a -> Membership_allocator.total_of a ~task_id

let congested t sw =
  match t.impl with
  | Dream_impl a -> Dream_allocator.congested a sw
  | Membership_impl _ -> false

let supports_drop t = match t.impl with Dream_impl _ -> true | Membership_impl _ -> false

let dream t = match t.impl with Dream_impl a -> Some a | Membership_impl _ -> None

let force_allocation t ~task_id ~switch ~alloc =
  match t.impl with
  | Dream_impl a -> Dream_allocator.force_allocation a ~task_id ~switch ~alloc
  | Membership_impl _ ->
    (* Membership allocators derive allocations from admissions, which the
       journal replays separately. *)
    ()

let codec =
  let open Dream_util.Codec in
  let fixed =
    record
      (let* k = field (int "denominator") fst in
       let+ a = field (Membership_allocator.codec (Fixed k)) snd in
       (k, a))
  in
  section "allocator"
    (cases ~what:"allocator strategy" ~key:"strategy"
       [
         case "dream" Dream_allocator.codec
           (fun a -> { strategy = Dream (Dream_allocator.config a); impl = Dream_impl a })
           (function { impl = Dream_impl a; _ } -> Some a | _ -> None);
         case "equal" (Membership_allocator.codec Equal)
           (fun a -> { strategy = Equal; impl = Membership_impl a })
           (function
             | { impl = Membership_impl a; strategy = Equal | Dream _ } -> Some a | _ -> None);
         case "fixed" fixed
           (fun (k, a) -> { strategy = Fixed k; impl = Membership_impl a })
           (function { impl = Membership_impl a; strategy = Fixed k } -> Some (k, a) | _ -> None);
       ])
