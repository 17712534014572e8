package repro.core.profile

/** A column profile (output of Alg. 2): membership metadata `M`, the
  * inferred fine-grained type `fgt`, statistics `S`, and the CoLR +
  * label embeddings `E`. One instance per column of the data lake; these
  * are what the profiler returns and what Alg. 3 pairs up.
  */
case class ColumnProfile(
    datasetName: String,
    tableName: String,
    columnName: String,
    fgType: String,
    totalCount: Long,
    nonNullCount: Long,
    distinctCount: Long,
    trueRatio: Double,
    mean: Double,
    std: Double,
    minVal: Double,
    maxVal: Double,
    embedding: Array[Double],
    labelEmbedding: Array[Double],
) {
  /** URI-ish identifier of the table this column belongs to. */
  def tableId: String = s"$datasetName/$tableName"

  /** URI-ish identifier of the column. */
  def columnId: String = s"$datasetName/$tableName/$columnName"

  /** Number of missing cells. */
  def nullCount: Long = totalCount - nonNullCount
}
