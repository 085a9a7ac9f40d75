(* The MPDA/PDA network is the generic harness applied to the
   link-state router; everything — dispatch, reliable transport,
   channel faults, crashes, partitions — is shared with the
   distance-vector instantiation through Harness.Make. *)

module H = Harness.Make (struct
  type t = Router.t
  type msg = Router.msg

  let outputs l = List.map (fun o -> (o.Router.dst, o.Router.msg)) l
  let create ~id ~n = Router.create ~mode:Router.Mpda ~id ~n ()
  let handle_link_up t ~nbr ~cost = outputs (Router.handle_link_up t ~nbr ~cost)
  let handle_link_down t ~nbr = outputs (Router.handle_link_down t ~nbr)

  let handle_link_down_unconfirmed t ~nbr =
    outputs (Router.handle_link_down ~unconfirmed:true t ~nbr)

  let confirm_link_down t ~nbr = outputs (Router.confirm_link_down t ~nbr)
  let handle_link_cost t ~nbr ~cost = outputs (Router.handle_link_cost t ~nbr ~cost)
  let handle_msg t ~from_ msg = outputs (Router.handle_msg t ~from_ msg)
  let is_passive = Router.is_passive
  let distance = Router.distance
  let successors = Router.successors
  let feasible_distance = Router.feasible_distance
  let neighbor_distance = Router.neighbor_distance
  let up_neighbors = Router.up_neighbors
  let messages_sent = Router.stats_messages_sent
  let active_phases = Router.stats_active_phases
end)

include H

let create ?(mode = Router.Mpda) ?detection ?seed ?observer ~topo ~cost () =
  H.create
    ~make_router:(fun ~id ~n -> Router.create ~mode ~id ~n ())
    ?detection ?seed ?observer ~topo ~cost ()
