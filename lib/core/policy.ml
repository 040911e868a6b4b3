type ops = {
  iter_taken : int -> (int -> unit) -> unit;
  other_grantee : int -> int -> bool;
  uaw_size : int -> int -> int;
  slot : int -> int -> int;
}

type view = { id : int; ops : ops }

let iter_taken v f = v.ops.iter_taken v.id f
let other_grantee v w = v.ops.other_grantee v.id w
let uaw_size v w = v.ops.uaw_size v.id w
let slot v w = v.ops.slot v.id w

type t = {
  name : string;
  on_combine : view -> unit;
  on_write : view -> unit;
  probe_rcvd : view -> from:int -> unit;
  response_rcvd : view -> flag:bool -> from:int -> unit;
  update_rcvd : view -> from:int -> unit;
  release_rcvd : view -> from:int -> unit;
  set_lease : view -> target:int -> bool;
  break_lease : view -> target:int -> bool;
  release_policy : view -> target:int -> unit;
}

type factory = node_id:int -> nbrs:int list -> t

let noop ~name ~set_lease =
  let p = {
    name;
    on_combine = (fun _ -> ());
    on_write = (fun _ -> ());
    probe_rcvd = (fun _ ~from:_ -> ());
    response_rcvd = (fun _ ~flag:_ ~from:_ -> ());
    update_rcvd = (fun _ ~from:_ -> ());
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> set_lease);
    break_lease = (fun _ ~target:_ -> false);
    release_policy = (fun _ ~target:_ -> ());
  }
  in
  fun ~node_id:_ ~nbrs:_ -> p
