type ops = {
  taken : int -> int -> bool;
  other_grantee : int -> int -> bool;
  uaw_size : int -> int -> int;
}

type view = { id : int; ops : ops }

let taken v i = v.ops.taken v.id i
let other_grantee v i = v.ops.other_grantee v.id i
let uaw_size v i = v.ops.uaw_size v.id i

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
