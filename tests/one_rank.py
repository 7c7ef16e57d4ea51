"""One batch through the rank-stacked model as a stack of one rank: (b, ...)
with 1-D labels in, one rank's loss and per-layer [dW, db] out."""

from adacomp.nn import split_vector


def forward(model, x, labels):
    """(loss, cache) of one batch."""
    losses, cache = model.forward(x[None], labels[None])
    return losses[0], cache


def backward(model, cache):
    """[dW, db] per parameterized layer, as views of the layer's gradient row."""
    return [split_vector(row[0], [p.shape for p in layer.params()])
            for row, layer in zip(model.backward(cache), model.param_layers)]
