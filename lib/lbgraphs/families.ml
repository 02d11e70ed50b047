(* Listing order is the historical `hardness list` order: the Section 2
   exact families, the Section 3 spanner, then the Section 4 gap
   families. *)
let all =
  Mds_lb.specs @ Maxis_lb.specs @ Hampath_lb.specs @ Steiner_lb.specs
  @ Maxcut_lb.specs @ Spanner_lb.specs @ Maxis_approx_lb.specs
  @ Kmds_lb.specs @ Steiner_approx_lb.specs @ Mds_restricted_lb.specs
  @ Bitgadget_lb.specs

(* Both are shared by the daemon's scheduler threads, whose first
   requests may race: Pool.once, not a Lazy.t, which raises on a
   concurrent force. *)
let catalog = Ch_core.Pool.once (fun () -> Ch_core.Registry.of_specs all)

let catalog_json = Ch_core.Pool.once (fun () -> Ch_core.Registry.to_json (catalog ()))
