package flowserver

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// RPC method names served by the Flowserver. Per §5 of the paper, the
// replica-path function is exposed as an RPC service that is not tied to
// Mayflower: any distributed application can pass candidate sources and a
// transfer size and get back the chosen sources with per-source sizes.
const (
	MethodSelect      = "fs.Select"
	MethodSelectWrite = "fs.SelectWrite"
	MethodFinished    = "fs.Finished"
)

// SelectArgs asks for a read assignment. Hosts are topology host names
// (the prototype's stand-in for the IP addresses the paper's RPC takes).
type SelectArgs struct {
	ClientHost   string   `json:"clientHost"`
	ReplicaHosts []string `json:"replicaHosts"`
	Bits         float64  `json:"bits"`
}

// AssignmentDTO is the wire form of one Assignment.
type AssignmentDTO struct {
	FlowID      FlowID  `json:"flowId"`
	ReplicaHost string  `json:"replicaHost"`
	Bits        float64 `json:"bits"`
	EstimatedBw float64 `json:"estimatedBw,omitempty"`
	Local       bool    `json:"local,omitempty"`
	PathLen     int     `json:"pathLen"`
}

// SelectWriteArgs asks for a replication-pipeline schedule: one transfer
// of Bits bits from SourceHost to every target host, ordered by the
// Flowserver (see Server.SelectWritePipeline). In the returned
// assignments ReplicaHost names the *target* of each hop — the flow runs
// source→target, the reverse of a read assignment.
type SelectWriteArgs struct {
	SourceHost  string   `json:"sourceHost"`
	TargetHosts []string `json:"targetHosts"`
	Bits        float64  `json:"bits"`
}

// FinishedArgs reports a completed flow.
type FinishedArgs struct {
	FlowID FlowID `json:"flowId"`
}

// Hooks let the embedding controller react to assignments: the prototype
// installs OpenFlow rules for the selected path on assignment and removes
// them when the client reports completion.
type Hooks struct {
	// OnAssign runs after a non-local assignment is made.
	OnAssign func(a Assignment)
	// OnFinish runs when a flow is reported finished.
	OnFinish func(id FlowID)
}

// Service is the selection surface RegisterRPC serves. The standalone
// *Server implements it, and so do the sharded deployments in
// internal/flowctl (a whole Plane, or one Shard serving its pods).
type Service interface {
	SelectReplicaAndPath(Request) ([]Assignment, error)
	SelectWritePipeline(source topology.NodeID, targets []topology.NodeID, bits float64) ([]Assignment, error)
	FlowFinished(FlowID)
}

// RegisterRPC exposes a Flowserver on a wire server, resolving host names
// against the topology.
func RegisterRPC(srv *wire.Server, fs Service, topo *topology.Topology, hooks Hooks) error {
	hostByName := make(map[string]topology.NodeID, topo.NumHosts())
	nameByHost := make(map[topology.NodeID]string, topo.NumHosts())
	for _, h := range topo.Hosts() {
		n := topo.Node(h)
		hostByName[n.Name] = h
		nameByHost[h] = n.Name
	}

	// toWire runs the assignment hook on every non-local assignment and
	// converts the batch to its wire form. A local assignment's estimate
	// is +Inf, which JSON cannot carry; it is sent as 0, since Local
	// already says the transfer never touches the network.
	toWire := func(as []Assignment) []AssignmentDTO {
		out := make([]AssignmentDTO, 0, len(as))
		for _, asg := range as {
			d := AssignmentDTO{
				FlowID:      asg.FlowID,
				ReplicaHost: nameByHost[asg.Replica],
				Bits:        asg.Bits,
				EstimatedBw: asg.EstimatedBw,
				Local:       asg.Local(),
				PathLen:     len(asg.Path),
			}
			if d.Local {
				d.EstimatedBw = 0
			} else if hooks.OnAssign != nil {
				hooks.OnAssign(asg)
			}
			out = append(out, d)
		}
		return out
	}

	selectHandler := func(_ context.Context, params json.RawMessage) (any, error) {
		var a SelectArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		client, ok := hostByName[a.ClientHost]
		if !ok {
			return nil, fmt.Errorf("flowserver: unknown client host %q", a.ClientHost)
		}
		replicas := make([]topology.NodeID, 0, len(a.ReplicaHosts))
		for _, name := range a.ReplicaHosts {
			h, ok := hostByName[name]
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown replica host %q", name)
			}
			replicas = append(replicas, h)
		}
		as, err := fs.SelectReplicaAndPath(Request{Client: client, Replicas: replicas, Bits: a.Bits})
		if err != nil {
			return nil, err
		}
		return toWire(as), nil
	}

	selectWriteHandler := func(_ context.Context, params json.RawMessage) (any, error) {
		var a SelectWriteArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		source, ok := hostByName[a.SourceHost]
		if !ok {
			return nil, fmt.Errorf("flowserver: unknown source host %q", a.SourceHost)
		}
		targets := make([]topology.NodeID, 0, len(a.TargetHosts))
		for _, name := range a.TargetHosts {
			h, ok := hostByName[name]
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown target host %q", name)
			}
			targets = append(targets, h)
		}
		as, err := fs.SelectWritePipeline(source, targets, a.Bits)
		if err != nil {
			return nil, err
		}
		return toWire(as), nil
	}

	finishedHandler := func(_ context.Context, params json.RawMessage) (any, error) {
		var a FinishedArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		fs.FlowFinished(a.FlowID)
		if hooks.OnFinish != nil {
			hooks.OnFinish(a.FlowID)
		}
		return struct{}{}, nil
	}

	if err := srv.Register(MethodSelect, selectHandler); err != nil {
		return err
	}
	if err := srv.Register(MethodSelectWrite, selectWriteHandler); err != nil {
		return err
	}
	return srv.Register(MethodFinished, finishedHandler)
}

// RPCClient is the typed Flowserver stub over an rpc session (usually an
// *rpc.Peer). Connection lifecycle — dialing, pooling, reconnection —
// belongs to the session layer, not this stub.
type RPCClient struct {
	c rpc.Caller
}

// NewRPCClient wraps a control-plane session.
func NewRPCClient(c rpc.Caller) *RPCClient { return &RPCClient{c: c} }

// Select asks the Flowserver for a read assignment.
func (c *RPCClient) Select(ctx context.Context, args SelectArgs) ([]AssignmentDTO, error) {
	var out []AssignmentDTO
	if err := c.c.Call(ctx, MethodSelect, args, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectWrite asks the Flowserver to order a replication pipeline.
func (c *RPCClient) SelectWrite(ctx context.Context, args SelectWriteArgs) ([]AssignmentDTO, error) {
	var out []AssignmentDTO
	if err := c.c.Call(ctx, MethodSelectWrite, args, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Finished reports a completed flow.
func (c *RPCClient) Finished(ctx context.Context, id FlowID) error {
	var out struct{}
	return c.c.Call(ctx, MethodFinished, FinishedArgs{FlowID: id}, &out)
}
