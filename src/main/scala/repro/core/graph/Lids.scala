package repro.core.graph

/** The LiDS ontology (§2.1): class and property URIs plus URI builders
  * for resources. Kept string-typed, so a triple is plain strings and a
  * weight, on the driver and in a Spark Dataset alike.
  */
object Lids {
  val OntologyPrefix = "http://kglids.org/ontology/"
  val ResourcePrefix = "http://kglids.org/resource/"

  /** The default (non-named) graph holding the dataset + library graphs. */
  val DefaultGraph = "kglids:default"

  /** Ontology classes. */
  object Cls {
    val Dataset   = OntologyPrefix + "Dataset"
    val Table     = OntologyPrefix + "Table"
    val Column    = OntologyPrefix + "Column"
    val Pipeline  = OntologyPrefix + "Pipeline"
    val Statement = OntologyPrefix + "Statement"
    val Library   = OntologyPrefix + "Library"
    val Function  = OntologyPrefix + "Function"
    val Class     = OntologyPrefix + "Class"
    val Package   = OntologyPrefix + "Package"
  }

  /** Object + data properties. Grouped by the Table-4 "modelled aspect"
    * each one is counted under (see [[Aspects]]).
    */
  object Prop {
    val RdfType  = "rdf:type"
    val HasLabel = OntologyPrefix + "label"

    // dataset graph
    val IsPartOf         = OntologyPrefix + "isPartOf"
    val HasDataType      = OntologyPrefix + "hasDataType"
    val HasTotalRows     = OntologyPrefix + "hasTotalRows"
    val HasMissingCount  = OntologyPrefix + "hasMissingCount"
    val HasDistinctCount = OntologyPrefix + "hasDistinctCount"
    val HasTrueRatio     = OntologyPrefix + "hasTrueRatio"
    val LabelSimilarity  = OntologyPrefix + "hasLabelSimilarity"
    val ContentSimilarity = OntologyPrefix + "hasContentSimilarity"

    // pipeline graphs
    val NextStatement = OntologyPrefix + "nextStatement"
    val HasDataFlowTo = OntologyPrefix + "hasDataFlowTo"
    val InControlFlow = OntologyPrefix + "inControlFlow"
    val HasText       = OntologyPrefix + "hasText"
    val CallsFunction = OntologyPrefix + "callsFunction"
    val HasParameter  = OntologyPrefix + "hasParameter"
    val ReadsTable    = OntologyPrefix + "readsTable"
    val ReadsColumn   = OntologyPrefix + "readsColumn"

    // library graph
    val IsPartOfLibrary = OntologyPrefix + "isPartOfLibrary"

    // pipeline metadata
    val IsWrittenBy  = OntologyPrefix + "isWrittenBy"
    val HasVotes     = OntologyPrefix + "hasVotes"
    val HasScore     = OntologyPrefix + "hasScore"
    val AboutDataset = OntologyPrefix + "aboutDataset"
  }

  /** Table-4 aspect name per predicate. */
  val Aspects: Map[String, String] = Map(
    Prop.ReadsTable        -> "Dataset reads",
    Prop.IsPartOfLibrary   -> "Library hierarchy",
    Prop.RdfType           -> "RDF node types",
    Prop.ReadsColumn       -> "Column reads",
    Prop.CallsFunction     -> "Library calls",
    Prop.NextStatement     -> "Code flow",
    Prop.HasDataFlowTo     -> "Data flow",
    Prop.InControlFlow     -> "Control flow type",
    Prop.HasParameter      -> "Func. parameters",
    Prop.HasText           -> "Statement text",
  )

  /** The id a resource URI names: the URI without [[ResourcePrefix]]. */
  def idOf(uri: String): String = uri.stripPrefix(ResourcePrefix)

  def datasetUri(dataset: String): String = s"$ResourcePrefix$dataset"
  def tableUri(dataset: String, table: String): String = s"$ResourcePrefix$dataset/$table"
  def columnUri(dataset: String, table: String, column: String): String =
    s"$ResourcePrefix$dataset/$table/$column"
  def pipelineGraph(pipelineId: String): String = s"$ResourcePrefix$pipelineId"
  def statementUri(pipelineId: String, index: Int): String =
    s"$ResourcePrefix$pipelineId/s$index"
  def libraryUri(dottedPath: String): String =
    s"${ResourcePrefix}library/${dottedPath.replace('.', '/')}"
}
