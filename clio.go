package clio

import (
	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/render"
	"clio/internal/schema"
	"clio/internal/sqlparse"
	"clio/internal/value"
	"clio/internal/workspace"
)

// Values and tuples.
type (
	// Value is a typed datum with SQL null semantics.
	Value = value.Value
	// Tri is a three-valued-logic truth value.
	Tri = value.Tri
	// Tuple assigns values to a scheme's attributes.
	Tuple = relation.Tuple
	// Scheme is an ordered set of qualified attribute names.
	Scheme = relation.Scheme
	// Relation is a named finite set of tuples.
	Relation = relation.Relation
	// Instance is a database instance conforming to a schema.
	Instance = relation.Instance
)

// Schema model.
type (
	// Database is a database schema with constraints.
	Database = schema.Database
	// RelationSchema describes one relation scheme.
	RelationSchema = schema.Relation
	// Attribute is one column of a relation scheme.
	Attribute = schema.Attribute
	// ColumnRef names a column as Relation.Attr.
	ColumnRef = schema.ColumnRef
	// ForeignKey is a referential constraint.
	ForeignKey = schema.ForeignKey
)

// Expressions and query graphs.
type (
	// Expr is a predicate or scalar expression over tuples.
	Expr = expr.Expr
	// QueryGraph is the paper's Definition 3.3 join graph.
	QueryGraph = graph.QueryGraph
)

// The core mapping model.
type (
	// Mapping is the paper's <G, V, C_S, C_T> (Definition 3.14).
	Mapping = core.Mapping
	// Correspondence is a value correspondence (Definition 3.1).
	Correspondence = core.Correspondence
	// Example is a mapping example (Definition 4.1).
	Example = core.Example
	// Illustration is a set of examples of a mapping.
	Illustration = core.Illustration
	// WalkOption is one data-walk alternative (Section 5.1).
	WalkOption = core.WalkOption
	// ChaseOption is one data-chase alternative (Section 5.2).
	ChaseOption = core.ChaseOption
	// Evolved is a continuously evolved illustration (Section 5.3).
	Evolved = core.Evolved
)

// Discovery and workspaces.
type (
	// Knowledge is the join-knowledge base searched by data walks.
	Knowledge = discovery.Knowledge
	// ValueIndex is the inverted index powering data chases.
	ValueIndex = discovery.ValueIndex
	// IND is a unary inclusion dependency.
	IND = discovery.IND
	// Tool is a Clio session: workspaces, knowledge, target view.
	Tool = workspace.Tool
	// Workspace holds one alternative mapping with its illustration.
	Workspace = workspace.Workspace
)

// Value constructors.
var (
	// Null is the SQL null value.
	Null = value.Null
	// StringValue constructs a string value.
	StringValue = value.String
	// IntValue constructs an integer value.
	IntValue = value.Int
	// FloatValue constructs a float value.
	FloatValue = value.Float
	// BoolValue constructs a boolean value.
	BoolValue = value.Bool
	// ParseValue guesses a value's kind from display text.
	ParseValue = value.Parse
)

// Schema constructors.
var (
	// NewDatabase creates an empty database schema.
	NewDatabase = schema.NewDatabase
	// NewRelationSchema creates a relation scheme.
	NewRelationSchema = schema.NewRelation
	// Col builds a ColumnRef.
	Col = schema.Col
	// NewInstance creates an empty instance of a schema.
	NewInstance = relation.NewInstance
	// NewScheme builds a tuple scheme from qualified names.
	NewScheme = relation.NewScheme
	// NewTuple builds a tuple over a scheme.
	NewTuple = relation.NewTuple
	// NewRelation creates an empty relation instance.
	NewRelation = relation.New
)

// Expressions.
var (
	// ParseExpr parses a SQL-flavoured expression.
	ParseExpr = expr.Parse
	// MustParseExpr is ParseExpr that panics on error.
	MustParseExpr = expr.MustParse
	// Equals builds the canonical join predicate l = r.
	Equals = expr.Equals
	// RegisterFunc adds a scalar function usable in correspondences.
	RegisterFunc = expr.RegisterFunc
	// IsStrong reports whether a predicate is strong over a scheme.
	IsStrong = expr.IsStrong
)

// Mappings, examples, and operators.
var (
	// NewMapping creates an empty mapping onto a target relation.
	NewMapping = core.NewMapping
	// NewQueryGraph creates an empty query graph.
	NewQueryGraph = graph.New
	// Identity builds an identity correspondence.
	Identity = core.Identity
	// CorrFromExpr builds a correspondence from an expression.
	CorrFromExpr = core.FromExpr
	// ParseCorrespondence parses "expr -> Rel.Attr".
	ParseCorrespondence = core.ParseCorrespondence
	// AllExamples builds the complete illustration of a mapping.
	AllExamples = core.AllExamples
	// SufficientIllustration selects a small sufficient illustration.
	SufficientIllustration = core.SufficientIllustration
	// Focus restricts an illustration to chosen focus tuples.
	Focus = core.Focus
	// DataWalk enumerates graph extensions to a known relation.
	DataWalk = core.DataWalk
	// DataChase extends the graph by following a data value.
	DataChase = core.DataChase
	// AddCorrespondence adds a correspondence, walking when needed.
	AddCorrespondence = core.AddCorrespondence
	// Evolve continuously evolves an illustration onto a new mapping.
	Evolve = core.Evolve
)

// Full disjunction.
var (
	// FullDisjunction computes D(G) for any connected query graph.
	FullDisjunction = fd.FullDisjunction
	// FullDisjunctionOuterJoin computes D(G) for tree graphs via full
	// outer joins.
	FullDisjunctionOuterJoin = fd.FullDisjunctionOuterJoin
	// ComputeDG picks the best D(G) algorithm for the graph.
	ComputeDG = fd.Compute
	// Coverage returns the nodes a data association covers.
	Coverage = fd.Coverage
	// CoverageTag abbreviates a coverage set ("CPPh").
	CoverageTag = fd.Tag
)

// Discovery.
var (
	// BuildKnowledge assembles join knowledge from constraints and
	// optional IND mining.
	BuildKnowledge = discovery.BuildKnowledge
	// BuildValueIndex builds the chase's inverted value index.
	BuildValueIndex = discovery.BuildValueIndex
	// DiscoverINDs mines inclusion dependencies from data.
	DiscoverINDs = discovery.DiscoverINDs
	// ProposeForeignKeys turns full INDs on keys into FK proposals.
	ProposeForeignKeys = discovery.ProposeForeignKeys
)

// Workspaces and IO.
var (
	// NewTool opens a Clio session over an instance and target.
	NewTool = workspace.New
	// LoadCSVDir loads a directory of CSV files as an instance.
	LoadCSVDir = csvio.LoadDir
	// SaveCSVDir writes an instance as CSV files.
	SaveCSVDir = csvio.SaveDir
	// FormatTable renders a relation as an ASCII table.
	FormatTable = render.Table
	// FormatIllustration renders an illustration as a table.
	FormatIllustration = render.Illustration
)

// RenderOptions controls FormatTable.
type RenderOptions = render.Options

// Mapping comparison and join-query representation.
type (
	// MappingDiff is the structural difference between two mappings.
	MappingDiff = core.MappingDiff
	// Distinguishing holds examples separating two mappings.
	Distinguishing = core.Distinguishing
	// JoinQuery is a join / outer-join expression tree.
	JoinQuery = core.JoinQuery
	// JQRel is a join-query leaf (one relation occurrence).
	JQRel = core.Rel
	// JQJoin is a join-query join node.
	JQJoin = core.JQJoin
	// EdgeAlternative is a relabeling alternative for a graph edge.
	EdgeAlternative = core.EdgeAlternative
)

// Comparison, extra operators, and the representation theorem.
var (
	// DiffMappings computes the structural difference of two mappings.
	DiffMappings = core.Diff
	// DistinguishingExamplesOf finds data separating two mappings.
	DistinguishingExamplesOf = core.DistinguishingExamples
	// RemoveNode undoes a walk/chase by dropping a leaf node.
	RemoveNode = core.RemoveNode
	// RelabelEdge swaps an edge's join condition for knowledge-base
	// alternatives.
	RelabelEdge = core.RelabelEdge
	// JoinRel builds a join-query leaf.
	JoinRel = core.NewRel
	// InnerQ, LeftQ, RightQ, FullQ build join-query nodes.
	InnerQ = core.Inner
	LeftQ  = core.Left
	RightQ = core.Right
	FullQ  = core.Full
	// RepresentJoinQuery compiles a join/outer-join query into term
	// mappings (the Section 3.4 representation).
	RepresentJoinQuery = core.RepresentJoinQuery
	// CombineMappings evaluates mappings and combines them by minimum
	// union.
	CombineMappings = core.CombineMappings
	// EvaluateJoinQuery evaluates a join query directly.
	EvaluateJoinQuery = core.EvaluateJoinQuery
)

// Persistence, evolution, sampling, and constraints.
var (
	// UnmarshalMapping reconstructs a mapping from its JSON document
	// (mappings marshal via their MarshalJSON method).
	UnmarshalMapping = core.UnmarshalMapping
	// EvolveOnDG evolves an illustration onto a precomputed D(G′).
	EvolveOnDG = core.EvolveOnDG
	// SampleRelation takes a deterministic sample of a relation.
	SampleRelation = relation.Sample
	// SampleInstance samples every relation of an instance.
	SampleInstance = relation.SampleInstance
	// ApplyTargetConstraints derives C_T filters from declared target
	// NOT NULL constraints.
	ApplyTargetConstraints = core.ApplyTargetConstraints
	// CoverageAll computes coverage for every D(G) tuple in one pass.
	CoverageAll = fd.CoverageAll
)

// SQL import (the inverse of Mapping.ViewSQL).
var (
	// ParseSelect parses a CREATE VIEW / SELECT statement.
	ParseSelect = sqlparse.ParseSelect
	// ImportMapping parses a SELECT statement into an equivalent
	// mapping (INNER/LEFT join chains).
	ImportMapping = sqlparse.ImportMapping
	// ToJoinQuery converts a parsed statement into a JoinQuery for the
	// exact multi-mapping representation.
	ToJoinQuery = sqlparse.ToJoinQuery
)

// SQLQuery is a parsed SELECT statement.
type SQLQuery = sqlparse.Query

// Correspondence suggestion (the paper's automated-matcher substrate).
var (
	// SuggestCorrespondences ranks likely source→target attribute
	// matches by name similarity.
	SuggestCorrespondences = discovery.SuggestCorrespondences
)

// CorrespondenceSuggestion is one ranked source→target proposal.
type CorrespondenceSuggestion = discovery.Suggestion

// Narration and HTML reporting.
var (
	// ExplainMappingDiff narrates how two mappings differ.
	ExplainMappingDiff = core.ExplainDiff
	// WriteHTMLReport renders a session report as a standalone page.
	WriteHTMLReport = render.WriteHTML
)

// HTMLReport is the input to WriteHTMLReport.
type HTMLReport = render.HTMLReport
