package repro.core.profile

import repro.substrate.text.{Ner, Tokenizer, WordEmbedding}

/** Fine-grained data type inference (§3.2).
  *
  * Given a sample of a column's non-null cell values (as strings), infer
  * one of the 7 [[FineGrainedType]]s. Structured types (boolean, int,
  * float, date) are detected by value patterns with a small noise
  * tolerance; the string-like types are split with the NER model
  * (named_entity), word-embedding coverage (natural_language), and a
  * generic fallback (string) — exactly the decision order of the paper.
  */
object TypeInference {

  /** Fraction of sampled values allowed to violate a structured pattern
    * (dirty cells) while still assigning the structured type.
    */
  val NoiseTolerance = 0.05

  private val IntRe   = "^[+-]?\\d{1,18}$".r
  private val FloatRe = "^[+-]?(\\d+\\.\\d*|\\.\\d+|\\d+)([eE][+-]?\\d+)?$".r
  private val DateRes = Seq(
    "^\\d{4}-\\d{2}-\\d{2}([ T].*)?$".r,
    "^\\d{2}/\\d{2}/\\d{4}$".r,
    "^\\d{4}/\\d{2}/\\d{2}$".r,
  )
  private val BoolValues =
    Set("true", "false", "t", "f", "yes", "no", "y", "n")

  private def mostly(values: Seq[String], p: String => Boolean): Boolean = {
    if (values.isEmpty) return false
    val allowedFails = (values.size * NoiseTolerance).toInt
    var fails = 0
    val it = values.iterator
    while (it.hasNext) {
      if (!p(it.next())) {
        fails += 1
        if (fails > allowedFails) return false // early exit: wrong type
      }
    }
    true
  }

  def isInt(v: String): Boolean     = IntRe.matches(v.trim)
  def isFloat(v: String): Boolean   = FloatRe.matches(v.trim)
  def isBoolean(v: String): Boolean = BoolValues.contains(v.trim.toLowerCase)
  def isDate(v: String): Boolean    = DateRes.exists(_.matches(v.trim))

  /** True when at least half the value's tokens have word embeddings —
    * the paper's natural-language test.
    */
  def isNaturalLanguage(v: String): Boolean = {
    val toks = Tokenizer.tokenize(v)
    toks.nonEmpty && toks.count(WordEmbedding.hasEmbedding) * 2 >= toks.size
  }

  /** Infer the fine-grained type of a column from sampled values. */
  def infer(sample: Seq[String]): String = {
    val values = ColumnStats.nonBlank(sample)
    if (values.isEmpty) FineGrainedType.Str
    else if (mostly(values, isBoolean)) FineGrainedType.Boolean
    else if (mostly(values, isInt)) FineGrainedType.Int
    else if (mostly(values, isFloat)) FineGrainedType.Float
    else if (mostly(values, isDate)) FineGrainedType.Date
    else if (mostly(values, Ner.isEntity)) FineGrainedType.NamedEntity
    else if (mostly(values, isNaturalLanguage)) FineGrainedType.NaturalLanguage
    else FineGrainedType.Str
  }
}
