package core

import "fmt"

// ClusterOptions configures a Node's controller. It exists because
// benchmark/moves.go builds nodes with NodeOptions.Cluster and
// ClusterOptions{Replicas, Controller}; it goes in ROADMAP item 1's
// benchmark PR, the one PR that may change benchmark/.
type ClusterOptions struct {
	// Replicas must be 0 or 1: a node is one controller.
	Replicas int
	// Controller configures the node's controller.
	Controller Options
}

// Cluster holds a node's one Controller. Like ClusterOptions it exists for
// benchmark/moves.go, which reads Node.Cluster and Cluster.Replica(0), and
// goes in ROADMAP item 1's benchmark PR.
type Cluster struct {
	*Controller
}

// NewCluster creates the holder. More than one replica panics: a node is
// one controller.
func NewCluster(opts ClusterOptions) *Cluster {
	if opts.Replicas > 1 {
		panic(fmt.Sprintf("core: %d replicas: a node is one controller", opts.Replicas))
	}
	return &Cluster{NewController(opts.Controller)}
}

// Replica returns the controller; benchmark/moves.go asks for replica 0.
func (cl *Cluster) Replica(int) *Controller { return cl.Controller }
